#include "check/check.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "check/race.hh"

namespace shrimp::check
{

namespace detail
{
bool gEnabled = true;
} // namespace detail

void
setEnabled(bool enabled)
{
    detail::gEnabled = enabled;
}

SimChecker &
SimChecker::instance()
{
    static SimChecker checker;
    return checker;
}

void
SimChecker::setAbortOnViolation(bool abort_on_violation)
{
    abortOnViolation_ = abort_on_violation;
}

void
SimChecker::reset()
{
    numChecks_ = 0;
    violations_.clear();
    queues_.clear();
    tasks_.clear();
    nextTaskId_ = 1;
    scheduledResumes_.clear();
    buses_.clear();
    shadows_.clear();
    lastDeliverySeq_.clear();
    meshes_.clear();
    routers_.clear();
    RaceDetector::instance().reset();
}

void
SimChecker::violation(const std::string &msg)
{
    violations_.push_back(msg);
    std::fprintf(stderr, "simcheck: %s\n", msg.c_str());
    if (abortOnViolation_)
        throw CheckError("simcheck: " + msg);
}

// ---- event queue ---------------------------------------------------------

void
SimChecker::onQueueCreated(const void *queue)
{
    queues_[queue] = QueueState{};
}

void
SimChecker::onQueueDestroyed(const void *queue)
{
    queues_.erase(queue);
}

void
SimChecker::onEventRun(const void *queue, Tick when, std::uint64_t seq,
                       Tick now)
{
    numChecks_ += 1;
    QueueState &st = queues_[queue];
    if (when < now) {
        violation(logging::format(
            "event queue time went backwards: event at %llu ns popped "
            "while now is %llu ns",
            (unsigned long long)when, (unsigned long long)now));
        return;
    }
    if (st.any && when == st.lastWhen && seq <= st.lastSeq) {
        violation(logging::format(
            "same-tick events ran out of schedule order at %llu ns: "
            "seq %llu after seq %llu (determinism broken)",
            (unsigned long long)when, (unsigned long long)seq,
            (unsigned long long)st.lastSeq));
        return;
    }
    st.any = true;
    st.lastWhen = when;
    st.lastSeq = seq;
}

// ---- spawned tasks -------------------------------------------------------

std::uint64_t
SimChecker::onTaskSpawn(const void *sim, const std::string &name, Tick now)
{
    std::uint64_t id = nextTaskId_++;
    tasks_[id] = TaskRec{sim, name, now};
    return id;
}

void
SimChecker::onTaskExit(std::uint64_t id)
{
    tasks_.erase(id);
}

std::string
SimChecker::describeActiveTasks(const void *sim) const
{
    std::string out;
    std::size_t n = 0;
    for (const auto &[id, rec] : tasks_) {
        if (rec.sim != sim)
            continue;
        if (n++ > 0)
            out += ", ";
        out += logging::format("'%s' (spawned at %llu ns)",
                               rec.name.c_str(),
                               (unsigned long long)rec.spawned);
    }
    if (n == 0)
        return "no tasks registered with the checker";
    return logging::format("%zu suspended task(s): ", n) + out;
}

std::string
SimChecker::describeActiveTasks() const
{
    std::string out;
    std::size_t n = 0;
    for (const auto &[id, rec] : tasks_) {
        if (n++ > 0)
            out += ", ";
        out += logging::format("'%s' (spawned at %llu ns)",
                               rec.name.c_str(),
                               (unsigned long long)rec.spawned);
    }
    if (n == 0)
        return "no tasks registered with the checker";
    return logging::format("%zu live task(s): ", n) + out;
}

void
SimChecker::onSimulatorDestroyed(const void *sim)
{
    for (auto it = tasks_.begin(); it != tasks_.end();) {
        if (it->second.sim == sim)
            it = tasks_.erase(it);
        else
            ++it;
    }
}

// ---- resume scheduling ---------------------------------------------------

void
SimChecker::onResumeScheduled(const void *frame)
{
    numChecks_ += 1;
    if (!scheduledResumes_.insert(frame).second) {
        violation("coroutine scheduled for resume while a resume is "
                  "already pending (double resume would corrupt the "
                  "frame)");
    }
}

void
SimChecker::onResumeFired(const void *frame)
{
    scheduledResumes_.erase(frame);
}

// ---- bus -----------------------------------------------------------------

void
SimChecker::onBusCreated(const void *bus)
{
    buses_[bus] = BusState{};
}

void
SimChecker::onBusTransferStart(const void *bus, std::uint64_t bytes)
{
    numChecks_ += 1;
    BusState &st = buses_[bus];
    if (st.active) {
        violation(logging::format(
            "bus granted to a second transfer (%llu bytes) while one "
            "(%llu bytes) is still in progress",
            (unsigned long long)bytes,
            (unsigned long long)st.grantedBytes));
        return;
    }
    st.active = true;
    st.grantedBytes = bytes;
    st.totalRequested += bytes;
}

void
SimChecker::onBusTransferEnd(const void *bus, std::uint64_t bytes)
{
    numChecks_ += 1;
    BusState &st = buses_[bus];
    if (!st.active) {
        violation("bus transfer completed that was never granted");
        return;
    }
    st.active = false;
    st.totalGranted += bytes;
    if (bytes != st.grantedBytes) {
        violation(logging::format(
            "bus conservation broken: transfer granted %llu bytes but "
            "moved %llu",
            (unsigned long long)st.grantedBytes,
            (unsigned long long)bytes));
        return;
    }
    if (st.totalGranted != st.totalRequested) {
        violation(logging::format(
            "bus conservation broken: %llu bytes requested vs %llu "
            "granted in total",
            (unsigned long long)st.totalRequested,
            (unsigned long long)st.totalGranted));
    }
}

// ---- packetizer shadow ---------------------------------------------------

void
SimChecker::onPacketizerCreated(const void *packetizer)
{
    shadows_[packetizer] = Shadow{};
}

void
SimChecker::onShadowStart(const void *packetizer, NodeId dst, PAddr addr,
                          const void *data, std::size_t len)
{
    numChecks_ += 1;
    Shadow &sh = shadows_[packetizer];
    if (sh.active) {
        violation("packetizer started a new pending packet while the "
                  "shadow still holds an unflushed one");
    }
    sh.active = true;
    sh.dst = dst;
    sh.base = addr;
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    sh.bytes.assign(bytes, bytes + len);
}

void
SimChecker::onShadowAppend(const void *packetizer, NodeId dst, PAddr addr,
                           const void *data, std::size_t len)
{
    numChecks_ += 1;
    Shadow &sh = shadows_[packetizer];
    if (!sh.active) {
        violation("write combined into a packet the shadow never saw "
                  "start");
        return;
    }
    if (dst != sh.dst) {
        violation(logging::format(
            "combining merged writes for different destination nodes "
            "(%u vs %u)", unsigned(sh.dst), unsigned(dst)));
        return;
    }
    PAddr expect = sh.base + PAddr(sh.bytes.size());
    if (addr != expect) {
        violation(logging::format(
            "combining merged a non-consecutive write: expected dest "
            "0x%x, got 0x%x", unsigned(expect), unsigned(addr)));
        return;
    }
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    sh.bytes.insert(sh.bytes.end(), bytes, bytes + len);
}

// onShadowFlush and onDuPacket — the two hooks that look inside a
// net::Packet — are defined in net/check_packet.cc so this layer never
// includes net/ headers.

// ---- NIC -----------------------------------------------------------------

void
SimChecker::onOptUse(NodeId node, bool valid, NodeId dest_node,
                     std::size_t off, std::size_t len, std::size_t window)
{
    numChecks_ += 1;
    if (!valid) {
        violation(logging::format("node %u used an invalid OPT entry",
                                  unsigned(node)));
        return;
    }
    if (dest_node == invalidNode) {
        violation(logging::format(
            "node %u OPT entry has no destination node", unsigned(node)));
        return;
    }
    if (off + len > window) {
        violation(logging::format(
            "node %u OPT access [%zu, %zu) exceeds the mapped window of "
            "%zu bytes", unsigned(node), off, off + len, window));
    }
}

void
SimChecker::onIncomingEngineCreated(const void *engine)
{
    lastDeliverySeq_[engine].clear();
}

void
SimChecker::onDelivery(const void *engine, NodeId src, std::uint64_t seq,
                       bool ipt_enabled)
{
    numChecks_ += 1;
    if (!ipt_enabled) {
        violation(logging::format(
            "packet from node %u delivered into a page the IPT has "
            "disabled (stale IPT entry bypassed the freeze protocol)",
            unsigned(src)));
        return;
    }
    if (seq == 0)
        return; // unsequenced raw packet (tests inject these directly)
    auto &last = lastDeliverySeq_[engine];
    auto it = last.find(src);
    if (it != last.end() && seq <= it->second) {
        violation(logging::format(
            "out-of-order delivery from node %u: packet seq %llu after "
            "seq %llu", unsigned(src), (unsigned long long)seq,
            (unsigned long long)it->second));
        return;
    }
    last[src] = seq;
}

// ---- mesh/routers --------------------------------------------------------

void
SimChecker::onMeshCreated(const void *mesh)
{
    meshes_[mesh] = MeshState{};
}

void
SimChecker::onMeshDestroyed(const void *mesh)
{
    meshes_.erase(mesh);
}

void
SimChecker::onMeshInject(const void *mesh, NodeId src, NodeId dst,
                         int expect_hops, std::uint64_t seq)
{
    numChecks_ += 1;
    MeshState &st = meshes_[mesh];
    if (!st.inflight.emplace(seq, InflightPkt{src, dst, expect_hops, 0})
             .second) {
        violation(logging::format(
            "mesh injected two packets with the same sequence number "
            "%llu (packet conservation broken)",
            (unsigned long long)seq));
        return;
    }
    st.fifo[{src, dst}].push_back(seq);
}

void
SimChecker::onMeshHop(const void *mesh, std::uint64_t seq)
{
    auto mit = meshes_.find(mesh);
    if (mit == meshes_.end())
        return;
    auto it = mit->second.inflight.find(seq);
    if (it != mit->second.inflight.end())
        it->second.hops += 1;
}

void
SimChecker::onMeshEject(const void *mesh, NodeId at, NodeId src, NodeId dst,
                        std::uint64_t seq)
{
    numChecks_ += 1;
    MeshState &st = meshes_[mesh];
    auto it = st.inflight.find(seq);
    if (it == st.inflight.end()) {
        violation(logging::format(
            "mesh ejected packet seq %llu (%u -> %u) that was never "
            "injected (packet conservation broken)",
            (unsigned long long)seq, unsigned(src), unsigned(dst)));
        return;
    }
    const InflightPkt pkt = it->second;
    st.inflight.erase(it);
    if (at != pkt.dst) {
        violation(logging::format(
            "misrouted packet seq %llu: ejected at node %u but destined "
            "for node %u",
            (unsigned long long)seq, unsigned(at), unsigned(pkt.dst)));
        return;
    }
    if (pkt.hops != pkt.expectHops) {
        violation(logging::format(
            "flow-control credit conservation broken for packet seq "
            "%llu (%u -> %u): %d link traversals consumed but the XY "
            "route needs %d",
            (unsigned long long)seq, unsigned(pkt.src), unsigned(pkt.dst),
            pkt.hops, pkt.expectHops));
        return;
    }
    auto &q = st.fifo[{pkt.src, pkt.dst}];
    if (q.empty() || q.front() != seq) {
        violation(logging::format(
            "mesh broke sender-to-receiver order: packet seq %llu "
            "(%u -> %u) ejected before seq %llu injected earlier on the "
            "same pair",
            (unsigned long long)seq, unsigned(pkt.src), unsigned(pkt.dst),
            (unsigned long long)(q.empty() ? 0 : q.front())));
        auto qit = std::find(q.begin(), q.end(), seq);
        if (qit != q.end())
            q.erase(qit);
        return;
    }
    q.pop_front();
}

void
SimChecker::onRouterCreated(const void *router)
{
    routers_[router] = RouterState{};
}

void
SimChecker::onRouterDestroyed(const void *router)
{
    routers_.erase(router);
}

void
SimChecker::onLinkTraverse(const void *router, NodeId router_id, int dir,
                           NodeId src, std::uint64_t seq)
{
    numChecks_ += 1;
    if (seq == 0) {
        // Mesh::inject sequences every packet from 1, and it is the only
        // way onto a link.
        violation(logging::format(
            "unsequenced packet from node %u traversed router %u link %d",
            unsigned(src), unsigned(router_id), dir));
        return;
    }
    auto &last = routers_[router].lastLinkSeq;
    auto it = last.find({dir, src});
    if (it != last.end() && seq <= it->second) {
        violation(logging::format(
            "per-link in-order delivery broken on router %u link %d: "
            "packet seq %llu from node %u traversed after seq %llu",
            unsigned(router_id), dir, (unsigned long long)seq,
            unsigned(src), (unsigned long long)it->second));
        return;
    }
    last[{dir, src}] = seq;
}

} // namespace shrimp::check
