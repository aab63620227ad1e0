/**
 * @file
 * Endpoint: the user-level VMMC library (the thin layer of paper section
 * 3.3) as seen by one process. It implements the VMMC API of section 2:
 *
 *  - exportBuffer()/unexport(): publish a receive buffer with access
 *    permissions; destruction waits for pending messages.
 *  - import()/unimport(): map a remote receive buffer for sending.
 *  - send(): blocking deliberate-update transfer from arbitrary local
 *    virtual memory into an imported buffer (word alignment required).
 *  - bindAu()/unbindAu(): automatic-update bindings — all local writes
 *    to the bound pages propagate to the remote buffer with optional
 *    combining, flush timer, and notification.
 *  - notifications: per-buffer handlers, block/unblock with queueing,
 *    and waitNotification().
 *
 * System builds the whole stack: a Machine plus one daemon per node, and
 * creates processes with endpoints.
 */

#ifndef SHRIMP_VMMC_VMMC_HH
#define SHRIMP_VMMC_VMMC_HH

#include <memory>
#include <vector>

#include "base/stats.hh"
#include "base/trace.hh"
#include "node/machine.hh"
#include "node/process.hh"
#include "vmmc/daemon.hh"
#include "vmmc/notification.hh"
#include "vmmc/types.hh"

namespace shrimp::vmmc
{

class Endpoint
{
    // analyze: node-owned — one per process, on its node

  public:
    Endpoint(node::Process &proc, Daemon &daemon);

    node::Process &proc() { return proc_; }
    NodeId nodeId() const { return proc_.nodeId(); }
    int pid() const { return proc_.pid(); }

    // ---- export side ----------------------------------------------------

    /**
     * Export [addr, addr+len) under @p key. @p addr must be page
     * aligned; protection is page-granular, so @p len is rounded up to
     * whole pages. A non-null @p handler accepts notifications for this
     * buffer and sets the pages' IPT interrupt bits.
     */
    sim::Task<Status> exportBuffer(std::uint32_t key, VAddr addr,
                                   std::size_t len, Perm perm = Perm{},
                                   NotifyHandler handler = nullptr);

    /** Destroy an export; waits for pending messages to be delivered. */
    sim::Task<Status> unexport(std::uint32_t key);

    /** Convenience: alloc + export. Returns the buffer address. */
    sim::Task<VAddr> allocExport(std::uint32_t key, std::size_t len,
                                 Perm perm = Perm{},
                                 NotifyHandler handler = nullptr);

    // ---- import side ----------------------------------------------------

    /** Import the buffer exported as (@p remote, @p key). */
    sim::Task<ImportResult> import(NodeId remote, std::uint32_t key);

    /** Destroy an import; waits for pending messages to be delivered. */
    sim::Task<Status> unimport(int handle);

    /** Length of an imported window; 0 for a bad handle. */
    std::size_t importLen(int handle) const;

    /** True if @p handle refers to a live import. */
    bool importValid(int handle) const;

    // ---- data transfer --------------------------------------------------

    /**
     * Blocking deliberate-update send: transfer @p len bytes from local
     * virtual address @p src into the imported buffer at byte offset
     * @p dst_off. Source and destination must be word aligned (the wire
     * length is rounded up to whole words). Completes when the source
     * data has been read out of local memory; delivery is in order.
     */
    sim::Task<Status> send(int handle, std::size_t dst_off, VAddr src,
                           std::size_t len, bool notify = false);

    /**
     * Create an automatic-update binding: writes to the local pages
     * [local, local+len) propagate to the imported buffer at @p dst_off.
     * Page granularity throughout; the local pages become
     * write-through cached (the snoop logic must see every store).
     */
    sim::Task<Status> bindAu(VAddr local, std::size_t len, int handle,
                             std::size_t dst_off,
                             AuOptions opts = AuOptions{});

    /** Remove an automatic-update binding. */
    sim::Task<Status> unbindAu(VAddr local, std::size_t len);

    // ---- notifications ---------------------------------------------------

    void blockNotifications() { notif_.block(); }
    void unblockNotifications() { notif_.unblock(*this); }
    bool notificationsBlocked() const { return notif_.blocked(); }

    /** Suspend until a notification arrives; returns it. */
    sim::Task<Notification> waitNotification() { return notif_.wait(); }

    std::size_t pendingNotifications() const { return notif_.pending(); }

    stats::Group &stats() { return stats_; }

    /** Toggle hardware interrupt bits for one of our exports (the
     *  polling-vs-blocking switch of paper section 6). */
    Status setInterruptsEnabled(std::uint32_t key, bool enabled);

    // ---- callbacks from the daemon ---------------------------------------

    /** The daemon revoked the import using OPT slot @p slot. */
    void noteImportRevoked(std::uint32_t slot);

    /** The daemon routed a notification to this process. */
    void deliverNotification(const Notification &n,
                             const NotifyHandler &handler);

  private:
    struct ImportRec
    {
        bool valid = false;
        NodeId remote = invalidNode;
        std::uint32_t key = 0;
        std::uint32_t slot = 0;
        PAddr base = 0;
        std::size_t len = 0;
    };

    struct AuBinding
    {
        VAddr local = 0;
        std::size_t len = 0;
        int handle = -1;
    };

    const ImportRec *lookupImport(int handle) const;

    node::Process &proc_;
    Daemon &daemon_;
    std::vector<ImportRec> imports_;
    std::vector<AuBinding> bindings_;
    NotificationQueue notif_;
    stats::Group stats_;
    trace::TrackId track_;
};

/**
 * System: the full software/hardware stack — Machine, one SHRIMP daemon
 * per node, and factory methods for processes with VMMC endpoints.
 */
class System
{
  public:
    explicit System(MachineConfig cfg = MachineConfig{});

    node::Machine &machine() { return machine_; }
    sim::Simulator &sim() { return machine_.sim(); }
    const MachineConfig &config() const { return machine_.config(); }
    int numNodes() const { return machine_.numNodes(); }

    Daemon &daemon(NodeId id) { return *daemons_.at(id); }

    /** Spawn a process on @p node_id with a VMMC endpoint. */
    Endpoint &createEndpoint(NodeId node_id);

    std::size_t numEndpoints() const { return endpoints_.size(); }
    Endpoint &endpoint(std::size_t i) { return *endpoints_.at(i); }

  private:
    node::Machine machine_;
    std::vector<std::unique_ptr<Daemon>> daemons_;
    std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

} // namespace shrimp::vmmc

#endif // SHRIMP_VMMC_VMMC_HH
