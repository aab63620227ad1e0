/**
 * @file
 * Daemon: the trusted SHRIMP daemon, one per node (paper section 3.3).
 * Daemons cooperate over the Ethernet side channel to establish and
 * destroy import-export mappings between user processes. They use
 * memory-mapped I/O to manipulate the network interface directly
 * (incoming page table enable/interrupt bits, outgoing page table import
 * slots) and service the NIC's freeze and notification interrupts.
 *
 * Local processes reach their daemon through direct (syscall-like)
 * entry points; remote daemons are reached with a small request/reply
 * protocol over Ethernet.
 */

#ifndef SHRIMP_VMMC_DAEMON_HH
#define SHRIMP_VMMC_DAEMON_HH

#include <cstdint>
#include <map>
#include <vector>

#include "base/stats.hh"
#include "base/trace.hh"
#include "node/ether.hh"
#include "node/node.hh"
#include "vmmc/buffer_registry.hh"
#include "vmmc/types.hh"

namespace shrimp::vmmc
{

/** The daemons' wire message (POD; memcpy-serialized onto Ethernet). */
struct DaemonMsg
{
    enum class Kind : std::uint32_t
    {
        ImportReq,
        ImportReply,
        UnimportReq,
        UnimportAck,
        RevokeReq,
        RevokeAck,
    };

    Kind kind = Kind::ImportReq;
    std::uint32_t reqId = 0;
    std::uint32_t key = 0;
    Status status = Status::Ok;
    PAddr base = 0;
    std::uint32_t len = 0;
    NodeId srcNode = invalidNode;
    std::int32_t srcPid = -1;
    std::uint16_t replyPort = 0;
};

class Daemon
{
    // analyze: node-owned — one per node

  public:
    Daemon(node::Node &node, node::EtherNet &ether);

    /** Spawn the service loop and hook the NIC interrupts. */
    void start();

    NodeId id() const { return node_.id(); }
    BufferRegistry &registry() { return registry_; }
    node::Node &node() { return node_; }

    /** Policy applied when data arrives for a disabled page. The
     *  default logs a warning and drops the offending packet. */
    using FreezePolicy =
        std::function<nic::FreezeAction(const net::Packet &, PageNum)>;
    void setFreezePolicy(FreezePolicy p) { freezePolicy_ = std::move(p); }

    // ---- local (trusted, syscall-like) entry points --------------------

    /** Register an export; enables the IPT pages. @p paddr/@p len must
     *  be page aligned (the Endpoint rounds). */
    sim::Task<Status> registerExport(ExportRecord rec);

    /** Destroy an export: stop accepting imports, revoke importers,
     *  wait for pending messages to drain, disable the pages. */
    sim::Task<Status> unexport(std::uint32_t key, int pid);

    struct ImportOutcome
    {
        Status status = Status::Ok;
        std::uint32_t slot = 0;
        PAddr base = 0;
        std::size_t len = 0;
    };

    /** Import (@p remote, @p key) on behalf of a local process. */
    sim::Task<ImportOutcome> importRemote(NodeId remote, std::uint32_t key,
                                          int pid, Endpoint *owner);

    /** Destroy an import mapping; waits for pending messages. */
    sim::Task<Status> unimport(NodeId remote, std::uint32_t key,
                               std::uint32_t slot, int pid);

    /** Toggle the receiver-specified interrupt bit of an export's pages
     *  (libraries use this to switch between polling and blocking). */
    Status setExportInterrupts(std::uint32_t key, int pid, bool enabled);

    std::uint64_t freezesHandled() const { return freezesHandled_; }

  private:
    struct ImportEntry
    {
        std::uint32_t slot;
        Endpoint *owner;
    };

    sim::Task<> serviceLoop();
    sim::Task<> handleImportReq(DaemonMsg m);
    sim::Task<> handleUnimportReq(DaemonMsg m);
    sim::Task<> handleRevokeReq(DaemonMsg m);
    sim::Task<DaemonMsg> request(NodeId remote, DaemonMsg m);
    void reply(const DaemonMsg &req, DaemonMsg resp);

    /** Wait until traffic toward [paddr, paddr+len) has drained. */
    sim::Task<> drainPages(PAddr paddr, std::size_t len);

    void onNotification(const net::Packet &pkt);
    void onBadPacket(const net::Packet &pkt, PageNum page);
    sim::Task<> freezeService(net::Packet pkt, PageNum page);

    node::Node &node_;
    node::EtherNet &ether_;
    BufferRegistry registry_;
    FreezePolicy freezePolicy_;

    /** Importer-side bookkeeping: (remote node, key) -> open imports. */
    std::map<std::pair<NodeId, std::uint32_t>, std::vector<ImportEntry>>
        imports_;

    std::uint32_t nextReq_ = 1;
    std::uint64_t freezesHandled_ = 0;
    bool started_ = false;

    stats::Group stats_;
    trace::TrackId track_;
};

/** Serialize/deserialize daemon messages for the Ethernet. */
std::vector<std::uint8_t> packMsg(const DaemonMsg &m);
DaemonMsg unpackMsg(const std::vector<std::uint8_t> &data);

} // namespace shrimp::vmmc

#endif // SHRIMP_VMMC_DAEMON_HH
