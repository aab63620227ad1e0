/**
 * @file
 * Host-side (wall-clock) performance harness. Every other bench in this
 * directory reports *simulated* time; this one measures how fast the
 * simulator itself chews through events, which is what bounds how large
 * a mesh or workload the reproduction can explore (SimBricks-style:
 * host throughput is the scaling limit of full-stack simulation).
 *
 * Six representative workloads:
 *   vmmc_pingpong   fig3-style raw VMMC DU-0copy ping-pong, 4-byte
 *                   messages — flag-poll dominated (Memory watchpoints)
 *   poll_fanout     8 service tasks poll distinct flag words while a
 *                   4 KB AU stream lands on the same node — the
 *                   wakeup-storm workload: every packet write re-runs
 *                   all 8 pollers
 *   au_stream       fig3-style AU-1copy ping-pong, 10 KB messages — the
 *                   wakeup-storm workload: each message arrives as ~20
 *                   packet writes while the receiver polls one word
 *   nx_exchange     fig4-style 2-rank NX csend/crecv ping-pong, 1 KB —
 *                   library poll loops + packetization
 *   sock_stream     ttcp-style one-way socket pump, 7 KB records —
 *                   ring flow control, AU combining
 *   mesh_allpairs   ablate_mesh_scale's all-pairs 1 KB NX exchange on
 *                   16 ranks (4x4) — the scaling workload
 *
 * All workloads run the calibrated model the figure benches run
 * (broadcast poll wakeups, DESIGN.md §11); only node memory is trimmed
 * (trimmedCfg).
 *
 * For each workload the whole simulation is repeated until a minimum
 * wall time has elapsed; the report gives host events/sec (best rep),
 * ns/event, and peak RSS, and a JSON file (default BENCH_host_perf.json)
 * records the trajectory for CI. With --baseline=FILE the run compares
 * events/sec per workload against the baseline JSON and exits nonzero
 * on a regression beyond --max-regress (default 0.20).
 *
 * Wall-clock use is deliberate and confined to bench/ (src/ bans it:
 * simulated results must not depend on the host clock; host *speed*
 * measurements obviously must).
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nx/nx.hh"
#include "sock/socket.hh"
#include "vmmc/vmmc.hh"

namespace
{

using namespace shrimp;

// ---- workloads ------------------------------------------------------------
// Each returns the number of events the simulator processed; simulated
// results are identical every call (the determinism the figure benches
// verify), so reps differ only in host time.

struct WorkResult
{
    std::uint64_t events = 0;
    Tick simulatedNs = 0;
};

/** Baseline 2x2 config with node memory trimmed to 2 MiB, so each rep's
 *  fixed setup (zeroing memory, sizing the NIC page tables) doesn't
 *  drown the per-event cost being measured; the workloads touch well
 *  under 1 MiB per node. */
MachineConfig
trimmedCfg()
{
    MachineConfig cfg;
    cfg.nodeMemBytes = 2 * units::MiB;
    return cfg;
}

/** fig3 DU-0copy ping-pong, 4-byte messages: the canonical
 *  flag-poll-dominated workload (every iteration sleeps on a memory
 *  watchpoint and wakes on the delivery DMA). */
WorkResult
vmmcPingpong(int iters)
{
    vmmc::System sys(trimmedCfg());
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);
    Tick t1 = 0;

    sys.sim().spawn([](vmmc::System &sys, vmmc::Endpoint &a,
                       vmmc::Endpoint &b, int iters,
                       Tick &t1) -> sim::Task<> {
        const std::size_t bufsz = 8192;
        node::Process &pa = a.proc();
        node::Process &pb = b.proc();
        VAddr user_a = pa.alloc(bufsz);
        VAddr recv_a = pa.alloc(bufsz, CacheMode::WriteThrough);
        VAddr user_b = pb.alloc(bufsz);
        VAddr recv_b = pb.alloc(bufsz, CacheMode::WriteThrough);
        co_await a.exportBuffer(1, recv_a, bufsz);
        co_await b.exportBuffer(2, recv_b, bufsz);
        auto ra = co_await a.import(b.nodeId(), 2);
        auto rb = co_await b.import(a.nodeId(), 1);
        for (int i = 1; i <= iters; ++i) {
            std::uint32_t tag = std::uint32_t(i);
            pa.poke32(user_a, tag);
            co_await a.send(ra.handle, 0, user_a, 4);
            co_await pb.waitWord32Eq(recv_b, tag);
            pb.poke32(user_b, tag);
            co_await b.send(rb.handle, 0, user_b, 4);
            co_await pa.waitWord32Eq(recv_a, tag);
        }
        t1 = sys.sim().now();
    }(sys, a, b, iters, t1));
    std::uint64_t n = sys.sim().runAll();
    return {n, t1};
}

/** fig3 AU-1copy ping-pong, 10 KB messages: the sender's copy into the
 *  AU-bound buffer streams out as ~20 packets, each landing as a write
 *  to the receiver's memory while the receiver polls the tag word, and
 *  each write wakes the poller for another check. */
WorkResult
auStream(int iters)
{
    vmmc::System sys(trimmedCfg());
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);
    Tick t1 = 0;

    sys.sim().spawn([](vmmc::System &sys, vmmc::Endpoint &a,
                       vmmc::Endpoint &b, int iters,
                       Tick &t1) -> sim::Task<> {
        const std::size_t size = 10240;
        const std::size_t bufsz = 12288; // page-aligned (bindAu needs it)
        node::Process &pa = a.proc();
        node::Process &pb = b.proc();
        VAddr user_a = pa.alloc(bufsz);
        VAddr recv_a = pa.alloc(bufsz, CacheMode::WriteThrough);
        VAddr user_b = pb.alloc(bufsz);
        VAddr recv_b = pb.alloc(bufsz, CacheMode::WriteThrough);
        vmmc::Status st = co_await a.exportBuffer(1, recv_a, bufsz);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "export a");
        st = co_await b.exportBuffer(2, recv_b, bufsz);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "export b");
        auto ra = co_await a.import(b.nodeId(), 2);
        auto rb = co_await b.import(a.nodeId(), 1);
        VAddr au_a = pa.alloc(bufsz);
        VAddr au_b = pb.alloc(bufsz);
        st = co_await a.bindAu(au_a, bufsz, ra.handle, 0);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "bindAu a");
        st = co_await b.bindAu(au_b, bufsz, rb.handle, 0);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "bindAu b");
        for (int i = 1; i <= iters; ++i) {
            std::uint32_t tag = std::uint32_t(i);
            pa.poke32(VAddr(user_a + size - 4), tag);
            co_await pa.copy(au_a, user_a, size);
            co_await pb.waitWord32Eq(VAddr(recv_b + size - 4), tag);
            pb.poke32(VAddr(user_b + size - 4), tag);
            co_await pb.copy(au_b, user_b, size);
            co_await pa.waitWord32Eq(VAddr(recv_a + size - 4), tag);
        }
        t1 = sys.sim().now();
    }(sys, a, b, iters, t1));
    std::uint64_t n = sys.sim().runAll();
    return {n, t1};
}

/** Wakeup-storm fan-out: 8 service tasks on node 1 each poll their own
 *  flag word while the peer streams 4 KB of AU data (~8 packet writes)
 *  into a bulk buffer on the same node every round, then taps each
 *  flag. Models a server polling many receive buffers (NX posted
 *  receives, multi-connection sockets). Every bulk packet write re-runs
 *  all 8 pollers, as it does in the figure benches. */
WorkResult
pollFanout(int iters)
{
    constexpr int pollers = 8;
    vmmc::System sys(trimmedCfg());
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);

    sys.sim().spawn([](vmmc::System &sys, vmmc::Endpoint &a,
                       vmmc::Endpoint &b, int iters) -> sim::Task<> {
        const std::size_t bulksz = 4096;
        node::Process &pa = a.proc();
        node::Process &pb = b.proc();
        VAddr user_bulk = pa.alloc(bulksz);
        VAddr user_flag = pa.alloc(64);
        VAddr bulk = pb.alloc(bulksz, CacheMode::WriteThrough);
        VAddr flags = pb.alloc(4096, CacheMode::WriteThrough);
        vmmc::Status st = co_await b.exportBuffer(1, bulk, bulksz);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "export bulk");
        st = co_await b.exportBuffer(2, flags, 4096);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "export flags");
        auto rbulk = co_await a.import(b.nodeId(), 1);
        auto rflags = co_await a.import(b.nodeId(), 2);
        VAddr au_bulk = pa.alloc(bulksz);
        st = co_await a.bindAu(au_bulk, bulksz, rbulk.handle, 0);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "bindAu bulk");

        // Service tasks: each polls its own flag word until the final
        // round lands. waitWord32Ne tolerates the sender running ahead.
        for (int k = 0; k < pollers; ++k) {
            sys.sim().spawn([](node::Process &pb, VAddr flag,
                               std::uint32_t last_round) -> sim::Task<> {
                std::uint32_t seen = 0;
                while (seen < last_round)
                    seen = co_await pb.waitWord32Ne(flag, seen);
            }(pb, VAddr(flags + VAddr(k) * 64),
              std::uint32_t(iters)));
        }

        for (int i = 1; i <= iters; ++i) {
            co_await pa.copy(au_bulk, user_bulk, bulksz);
            pa.poke32(user_flag, std::uint32_t(i));
            for (int k = 0; k < pollers; ++k) {
                st = co_await a.send(rflags.handle,
                                     std::size_t(k) * 64, user_flag, 4);
                SHRIMP_ASSERT(st == vmmc::Status::Ok, "flag send");
            }
        }
    }(sys, a, b, iters));
    std::uint64_t n = sys.sim().runAll();
    return {n, sys.sim().now()};
}

/** fig4-style 2-rank NX ping-pong, 1 KB messages. */
WorkResult
nxExchange(int iters)
{
    vmmc::System sys(trimmedCfg());
    nx::NxSystem nxs(sys, 2);
    sys.sim().spawn(nxs.init());
    std::uint64_t n = sys.sim().runAll();

    auto peer = [](nx::NxSystem &nxs, int rank, int iters) -> sim::Task<> {
        auto &p = nxs.proc(rank);
        auto &proc = p.endpoint().proc();
        VAddr buf = proc.alloc(2048);
        for (int i = 0; i < iters; ++i) {
            if (rank == 0) {
                co_await p.csend(1, buf, 1024, 1);
                co_await p.crecv(2, buf, 2048);
            } else {
                co_await p.crecv(1, buf, 2048);
                co_await p.csend(2, buf, 1024, 0);
            }
        }
    };
    sys.sim().spawn(peer(nxs, 0, iters));
    sys.sim().spawn(peer(nxs, 1, iters));
    n += sys.sim().runAll();
    return {n, sys.sim().now()};
}

/** ttcp-style one-way socket pump: @p records x 7 KB. */
WorkResult
sockStream(int records)
{
    const std::size_t record = 7168;
    const std::size_t total = std::size_t(records) * record;
    vmmc::System sys(trimmedCfg());
    auto &sink_ep = sys.createEndpoint(1);
    auto &src_ep = sys.createEndpoint(0);

    sys.sim().spawn([](vmmc::Endpoint &ep, std::size_t record,
                       std::size_t total) -> sim::Task<> {
        sock::SocketLib lib(ep);
        int ls = co_await lib.socket();
        co_await lib.listen(ls, 4000);
        int fd = co_await lib.accept(ls);
        VAddr buf = ep.proc().alloc(record + 64);
        std::size_t got = 0;
        while (got < total) {
            long n = co_await lib.recv(fd, buf, record);
            if (n <= 0)
                break;
            got += std::size_t(n);
        }
    }(sink_ep, record, total));
    sys.sim().spawn([](vmmc::Endpoint &ep, std::size_t record,
                       std::size_t total) -> sim::Task<> {
        sock::SocketLib lib(ep);
        int fd = co_await lib.socket();
        co_await lib.connect(fd, 1, 4000);
        VAddr buf = ep.proc().alloc(record + 64);
        std::size_t sent = 0;
        while (sent < total) {
            co_await lib.send(fd, buf, record);
            sent += record;
        }
        co_await lib.close(fd);
    }(src_ep, record, total));
    std::uint64_t n = sys.sim().runAll();
    return {n, sys.sim().now()};
}

/** ablate_mesh_scale's all-pairs 1 KB exchange + barrier, 16 ranks. */
WorkResult
meshAllpairs(int nprocs)
{
    MachineConfig cfg = trimmedCfg();
    cfg.meshWidth = nprocs > 4 ? 4 : 2;
    cfg.meshHeight = nprocs > 4 ? 4 : 2;
    cfg.nodeMemBytes = 2 * units::MiB;
    vmmc::System sys(cfg);
    nx::NxSystem nxs(sys, nprocs);
    sys.sim().spawn(nxs.init());
    std::uint64_t n = sys.sim().runAll();

    for (int r = 0; r < nprocs; ++r) {
        sys.sim().spawn([](nx::NxSystem &nxs, int r, int n) -> sim::Task<> {
            auto &p = nxs.proc(r);
            auto &proc = p.endpoint().proc();
            VAddr buf = proc.alloc(4096);
            for (int k = 1; k < n; ++k) {
                int to = (r + k) % n;
                co_await p.csend(long(100 + r), buf, 1024, to);
            }
            for (int k = 1; k < n; ++k) {
                int from = (r - k + n) % n;
                co_await p.crecv(long(100 + from), buf, 4096);
            }
            co_await p.gsync();
        }(nxs, r, nprocs));
    }
    n += sys.sim().runAll();
    return {n, sys.sim().now()};
}

// ---- measurement ----------------------------------------------------------

struct Measurement
{
    std::string name;
    std::uint64_t events = 0;     //!< events per rep (identical each rep)
    Tick simulatedNs = 0;
    int reps = 0;
    double bestWallNs = 0.0;      //!< fastest rep
    double eventsPerSec = 0.0;
    double nsPerEvent = 0.0;
};

double
nowNs()
{
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

template <typename Fn>
Measurement
measure(const std::string &name, double min_wall_ms, Fn &&run)
{
    Measurement m;
    m.name = name;
    // One untimed warm-up rep: page in code, warm allocator pools.
    WorkResult w = run();
    m.events = w.events;
    m.simulatedNs = w.simulatedNs;

    double spent = 0.0;
    double best = 0.0;
    int reps = 0;
    while (spent < min_wall_ms * 1e6 || reps < 3) {
        double t0 = nowNs();
        w = run();
        double dt = nowNs() - t0;
        if (w.events != m.events)
            panic(name + ": event count varied between reps; "
                         "the workload is nondeterministic");
        spent += dt;
        if (best == 0.0 || dt < best)
            best = dt;
        ++reps;
    }
    m.reps = reps;
    m.bestWallNs = best;
    m.eventsPerSec = double(m.events) * 1e9 / best;
    m.nsPerEvent = best / double(m.events);
    return m;
}

long
peakRssKb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

// ---- baseline comparison --------------------------------------------------
// The JSON we emit is flat and regular; a full parser would be overkill.
// Extract "name" and "events_per_sec" pairs with string scanning.

bool
loadBaseline(const std::string &path,
             std::vector<std::pair<std::string, double>> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);

    std::size_t pos = 0;
    while ((pos = text.find("\"name\":", pos)) != std::string::npos) {
        std::size_t q1 = text.find('"', pos + 7);
        std::size_t q2 = text.find('"', q1 + 1);
        if (q1 == std::string::npos || q2 == std::string::npos)
            break;
        std::string name = text.substr(q1 + 1, q2 - q1 - 1);
        std::size_t ep = text.find("\"events_per_sec\":", q2);
        if (ep == std::string::npos)
            break;
        double v = std::atof(text.c_str() + ep + 17);
        out.emplace_back(name, v);
        pos = q2;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_host_perf.json";
    std::string baseline_path;
    double max_regress = 0.20;
    double min_wall_ms = 300.0;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--out=", 6) == 0)
            out_path = a + 6;
        else if (std::strncmp(a, "--baseline=", 11) == 0)
            baseline_path = a + 11;
        else if (std::strncmp(a, "--max-regress=", 14) == 0)
            max_regress = std::atof(a + 14);
        else if (std::strncmp(a, "--min-wall-ms=", 14) == 0)
            min_wall_ms = std::atof(a + 14);
        else {
            std::fprintf(stderr,
                         "usage: host_perf [--out=FILE] [--baseline=FILE] "
                         "[--max-regress=F] [--min-wall-ms=MS]\n");
            return 2;
        }
    }

    std::printf("host_perf: wall-clock simulator throughput "
                "(simulated results are identical every rep)\n\n");
    std::printf("%16s %12s %14s %12s %8s %14s\n", "workload", "events",
                "events/sec", "ns/event", "reps", "simulated-ms");

    std::vector<Measurement> ms;
    auto run = [&](const std::string &name, auto &&fn) {
        Measurement m = measure(name, min_wall_ms, fn);
        std::printf("%16s %12llu %14.0f %12.1f %8d %14.3f\n",
                    m.name.c_str(), (unsigned long long)m.events,
                    m.eventsPerSec, m.nsPerEvent, m.reps,
                    double(m.simulatedNs) / 1e6);
        std::fflush(stdout);
        ms.push_back(m);
    };

    // Iteration counts are sized so per-rep System construction (zeroing
    // node memory, building NIC tables) is well under 10% of a rep: the
    // harness measures the event loop, not setup.
    run("vmmc_pingpong", [] { return vmmcPingpong(1000); });
    run("poll_fanout", [] { return pollFanout(300); });
    run("au_stream", [] { return auStream(200); });
    run("nx_exchange", [] { return nxExchange(400); });
    run("sock_stream", [] { return sockStream(768); });
    run("mesh_allpairs", [] { return meshAllpairs(16); });

    long rss_kb = peakRssKb();
    std::printf("\npeak RSS: %ld KB\n", rss_kb);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "host_perf: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    std::fprintf(f, "{\n  \"bench\": \"host_perf\",\n"
                    "  \"peak_rss_kb\": %ld,\n  \"workloads\": [\n",
                 rss_kb);
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const Measurement &m = ms[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"events\": %llu, "
            "\"events_per_sec\": %.0f, \"ns_per_event\": %.2f, "
            "\"reps\": %d, \"simulated_ns\": %llu}%s\n",
            m.name.c_str(), (unsigned long long)m.events, m.eventsPerSec,
            m.nsPerEvent, m.reps, (unsigned long long)m.simulatedNs,
            i + 1 < ms.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());

    if (!baseline_path.empty()) {
        std::vector<std::pair<std::string, double>> base;
        if (!loadBaseline(baseline_path, base)) {
            std::fprintf(stderr, "host_perf: cannot read baseline %s\n",
                         baseline_path.c_str());
            return 2;
        }
        int failures = 0;
        for (const auto &[name, base_eps] : base) {
            for (const Measurement &m : ms) {
                if (m.name != name || base_eps <= 0.0)
                    continue;
                double ratio = m.eventsPerSec / base_eps;
                std::printf("vs baseline %16s: %6.2fx\n", name.c_str(),
                            ratio);
                if (ratio < 1.0 - max_regress) {
                    std::fprintf(stderr,
                                 "host_perf: %s regressed: %.0f -> %.0f "
                                 "events/sec (%.0f%% of baseline, limit "
                                 "%.0f%%)\n",
                                 name.c_str(), base_eps, m.eventsPerSec,
                                 ratio * 100.0,
                                 (1.0 - max_regress) * 100.0);
                    ++failures;
                }
            }
        }
        if (failures)
            return 1;
    }
    return 0;
}
