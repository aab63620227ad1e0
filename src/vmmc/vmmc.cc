#include "vmmc/vmmc.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/span.hh"
#include "check/check.hh"
#include "check/race.hh"

namespace shrimp::vmmc
{

Endpoint::Endpoint(node::Process &proc, Daemon &daemon)
    : proc_(proc), daemon_(daemon), notif_(proc),
      stats_("node" + std::to_string(proc.nodeId()) + ".p" +
             std::to_string(proc.pid()) + ".vmmc"),
      track_(trace::track(stats_.name()))
{
    if (&daemon.node() != &proc.node())
        fatal("endpoint and daemon must live on the same node");
}

// ---- export side ------------------------------------------------------

sim::Task<Status>
Endpoint::exportBuffer(std::uint32_t key, VAddr addr, std::size_t len,
                       Perm perm, NotifyHandler handler)
{
    const MachineConfig &cfg = proc_.config();
    trace::ScopedSpan span(proc_.sim(), track_, "export");
    stats_.counter("exports") += 1;
    co_await proc_.compute(cfg.libCallCost);
    if (len == 0)
        co_return Status::BadRange;
    if (addr % cfg.pageBytes != 0)
        co_return Status::Misaligned;
    std::size_t rounded =
        (len + cfg.pageBytes - 1) / cfg.pageBytes * cfg.pageBytes;
    if (!proc_.as().mapped(addr, rounded))
        co_return Status::BadRange;

    ExportRecord rec;
    rec.key = key;
    rec.pid = pid();
    rec.owner = this;
    rec.vaddr = addr;
    rec.paddr = proc_.as().translateRange(addr, rounded);
    rec.len = rounded;
    rec.perm = perm;
    rec.handler = std::move(handler);
    co_return co_await daemon_.registerExport(std::move(rec));
}

sim::Task<Status>
Endpoint::unexport(std::uint32_t key)
{
    co_await proc_.compute(proc_.config().libCallCost);
    co_return co_await daemon_.unexport(key, pid());
}

sim::Task<VAddr>
Endpoint::allocExport(std::uint32_t key, std::size_t len, Perm perm,
                      NotifyHandler handler)
{
    VAddr addr = proc_.alloc(len);
    Status s = co_await exportBuffer(key, addr, len, perm,
                                     std::move(handler));
    if (s != Status::Ok)
        panic(std::string("allocExport failed: ") + statusName(s));
    co_return addr;
}

// ---- import side ------------------------------------------------------

sim::Task<ImportResult>
Endpoint::import(NodeId remote, std::uint32_t key)
{
    trace::ScopedSpan span(proc_.sim(), track_, "import");
    stats_.counter("imports") += 1;
    co_await proc_.compute(proc_.config().libCallCost);
    Daemon::ImportOutcome out =
        co_await daemon_.importRemote(remote, key, pid(), this);
    if (out.status != Status::Ok)
        co_return ImportResult{out.status, -1};

    ImportRec rec;
    rec.valid = true;
    rec.remote = remote;
    rec.key = key;
    rec.slot = out.slot;
    rec.base = out.base;
    rec.len = out.len;
    imports_.push_back(rec);
    co_return ImportResult{Status::Ok, int(imports_.size() - 1)};
}

const Endpoint::ImportRec *
Endpoint::lookupImport(int handle) const
{
    if (handle < 0 || std::size_t(handle) >= imports_.size())
        return nullptr;
    const ImportRec &rec = imports_[handle];
    return rec.valid ? &rec : nullptr;
}

std::size_t
Endpoint::importLen(int handle) const
{
    const ImportRec *rec = lookupImport(handle);
    return rec ? rec->len : 0;
}

bool
Endpoint::importValid(int handle) const
{
    return lookupImport(handle) != nullptr;
}

sim::Task<Status>
Endpoint::unimport(int handle)
{
    co_await proc_.compute(proc_.config().libCallCost);
    const ImportRec *rec = lookupImport(handle);
    if (!rec)
        co_return Status::BadHandle;

    // Drop any automatic-update bindings made through this import.
    for (auto &b : bindings_) {
        if (b.handle == handle)
            co_await unbindAu(b.local, b.len);
    }

    ImportRec copy = *rec;
    imports_[handle].valid = false;
    co_return co_await daemon_.unimport(copy.remote, copy.key, copy.slot,
                                        pid());
}

// ---- data transfer ----------------------------------------------------

// analyze: cross-node-entry — deliberate-update origin: the two-PIO
// initiation is charged before the NIC engine ever runs.
sim::Task<Status>
Endpoint::send(int handle, std::size_t dst_off, VAddr src, std::size_t len,
               bool notify)
{
    const MachineConfig &cfg = proc_.config();
    trace::ScopedSpan span(proc_.sim(), track_, "send");
    // This send is a message origin unless an upper library (NX, SRPC)
    // already staged a span for it; either way the id is claimed here,
    // synchronously, before the first suspension below.
    span::SpanId sp = span::takeStaged();
    if (sp == 0)
        sp = span::origin(track_, "msg.send", proc_.sim().now());
    const ImportRec *rec = lookupImport(handle);
    if (!rec)
        co_return Status::BadHandle;
    if (len == 0)
        co_return Status::Ok;
    if (!proc_.as().mapped(src, len))
        co_return Status::BadRange;

    PAddr src_pa = proc_.as().translateRange(src, len);
    if (src_pa % 4 != 0 || (rec->base + dst_off) % 4 != 0)
        co_return Status::Misaligned;
    std::size_t wire_len = (len + 3) & ~std::size_t(3);
    if (dst_off + wire_len > rec->len)
        co_return Status::BadRange;

    stats_.counter("sends") += 1;
    stats_.counter("sentBytes") += len;
    stats_.distribution("sendBytes").sample(double(len));
    // The two-access transfer-initiation sequence: programmed I/O to
    // addresses decoded by the network interface on the EISA bus.
    co_await proc_.compute(2 * cfg.eisaPioCost);
    // The PIO initiation orders the engine after the CPU's buffer fill.
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().handoff(
        proc_.raceActor(), proc_.node().nic().duEngine().raceActor()));
    co_await proc_.node().nic().deliberateSend(rec->slot, dst_off, src_pa,
                                               len, notify, sp);
    // The blocking send completes when the last source byte has been
    // read out: the CPU is ordered after the engine's DMA reads and may
    // reuse the buffer.
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().handoff(
        proc_.raceActor(), proc_.node().nic().duEngine().raceActor()));
    co_return Status::Ok;
}

sim::Task<Status>
Endpoint::bindAu(VAddr local, std::size_t len, int handle,
                 std::size_t dst_off, AuOptions opts)
{
    const MachineConfig &cfg = proc_.config();
    trace::ScopedSpan span(proc_.sim(), track_, "bindAu");
    co_await proc_.compute(cfg.libCallCost);
    const ImportRec *rec = lookupImport(handle);
    if (!rec)
        co_return Status::BadHandle;
    if (local % cfg.pageBytes != 0 || dst_off % cfg.pageBytes != 0 ||
        len % cfg.pageBytes != 0 || len == 0) {
        co_return Status::Misaligned;
    }
    if (dst_off + len > rec->len)
        co_return Status::BadRange;
    if (!proc_.as().mapped(local, len))
        co_return Status::BadRange;

    auto &opt = proc_.node().nic().opt();
    std::size_t npages = len / cfg.pageBytes;
    // Validate first: no page may already be bound.
    for (std::size_t i = 0; i < npages; ++i) {
        PAddr pa = proc_.as().translate(local + VAddr(i * cfg.pageBytes));
        if (opt.lookupPage(pa / cfg.pageBytes))
            co_return Status::AlreadyBound;
    }
    for (std::size_t i = 0; i < npages; ++i) {
        PAddr pa = proc_.as().translate(local + VAddr(i * cfg.pageBytes));
        nic::OptEntry e;
        e.valid = true;
        e.destNode = rec->remote;
        e.destBase = rec->base + PAddr(dst_off + i * cfg.pageBytes);
        e.len = cfg.pageBytes;
        e.combinable = opts.combinable;
        e.timerEnabled = opts.timerEnabled;
        e.destInterrupt = opts.notify;
        opt.bindPage(pa / cfg.pageBytes, e);
    }
    // The snoop logic must observe every store to the bound pages.
    proc_.as().setCacheMode(local, len, CacheMode::WriteThrough);
    SHRIMP_CHECK_HOOK(
        for (std::size_t i = 0; i < npages; ++i) {
            check::RaceDetector::instance().onAuBind(
                &proc_.node().memory(),
                proc_.as().translate(local + VAddr(i * cfg.pageBytes)),
                proc_.sim().now());
        });
    bindings_.push_back(AuBinding{local, len, handle});
    stats_.counter("auBindings") += 1;
    co_return Status::Ok;
}

sim::Task<Status>
Endpoint::unbindAu(VAddr local, std::size_t len)
{
    const MachineConfig &cfg = proc_.config();
    co_await proc_.compute(cfg.libCallCost);
    auto it = std::find_if(bindings_.begin(), bindings_.end(),
                           [local, len](const AuBinding &b) {
                               return b.local == local && b.len == len;
                           });
    if (it == bindings_.end())
        co_return Status::NotBound;

    // Push out anything still combining, then drop the OPT entries.
    proc_.node().nic().packetizer().flushPending();
    auto &opt = proc_.node().nic().opt();
    for (std::size_t i = 0; i < len / cfg.pageBytes; ++i) {
        PAddr pa = proc_.as().translate(local + VAddr(i * cfg.pageBytes));
        opt.unbindPage(pa / cfg.pageBytes);
        SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onAuUnbind(
            &proc_.node().memory(), pa));
    }
    proc_.as().setCacheMode(local, len, CacheMode::WriteBack);
    bindings_.erase(it);
    co_return Status::Ok;
}

// ---- notifications ----------------------------------------------------

Status
Endpoint::setInterruptsEnabled(std::uint32_t key, bool enabled)
{
    return daemon_.setExportInterrupts(key, pid(), enabled);
}

void
Endpoint::noteImportRevoked(std::uint32_t slot)
{
    for (std::size_t h = 0; h < imports_.size(); ++h) {
        ImportRec &rec = imports_[h];
        if (rec.valid && rec.slot == slot) {
            rec.valid = false;
            // Tear down AU bindings that pointed into the revoked
            // import (their OPT pages are unbound here; the daemon has
            // already freed the import slot itself).
            const MachineConfig &cfg = proc_.config();
            auto &opt = proc_.node().nic().opt();
            for (auto it = bindings_.begin(); it != bindings_.end();) {
                if (it->handle == int(h)) {
                    for (std::size_t i = 0; i < it->len / cfg.pageBytes;
                         ++i) {
                        PAddr pa = proc_.as().translate(
                            it->local + VAddr(i * cfg.pageBytes));
                        opt.unbindPage(pa / cfg.pageBytes);
                        SHRIMP_CHECK_HOOK(
                            check::RaceDetector::instance().onAuUnbind(
                                &proc_.node().memory(), pa));
                    }
                    proc_.as().setCacheMode(it->local, it->len,
                                            CacheMode::WriteBack);
                    it = bindings_.erase(it);
                } else {
                    ++it;
                }
            }
        }
    }
}

void
Endpoint::deliverNotification(const Notification &n,
                              const NotifyHandler &handler)
{
    stats_.counter("notifications") += 1;
    trace::instant(track_, "notification", proc_.sim().now());
    // Notification handoff: the receiving process's handler runs after
    // the delivering DMA (the current actor when this is reached through
    // the incoming engine's notify path).
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().handoff(
        check::RaceDetector::instance().currentActor(),
        proc_.raceActor()));
    notif_.deliver(*this, n, handler);
}

// ---- System -----------------------------------------------------------

System::System(MachineConfig cfg) : machine_(std::move(cfg))
{
    daemons_.reserve(machine_.numNodes());
    for (NodeId i = 0; i < NodeId(machine_.numNodes()); ++i) {
        daemons_.push_back(
            std::make_unique<Daemon>(machine_.node(i), machine_.ether()));
        daemons_.back()->start();
    }
}

Endpoint &
System::createEndpoint(NodeId node_id)
{
    node::Process &proc = machine_.spawnProcess(node_id);
    endpoints_.push_back(
        std::make_unique<Endpoint>(proc, *daemons_.at(node_id)));
    return *endpoints_.back();
}

} // namespace shrimp::vmmc
