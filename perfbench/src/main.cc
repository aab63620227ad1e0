/**
 * @file
 * perfbench runner: one process runs one workload.
 *
 *   shrimp_perfbench --workload W --seed N --seconds S --trace 0|1
 *                    [--spans-out FILE]
 *
 * Phases:
 *  1. kSetupGroups groups of kSetupsPerGroup back-to-back set-ups; the
 *     median group mean is setup_s.
 *  2. kInstances independent instances, each set up and followed by a
 *     check block of kCheckBatches batches. The check blocks give every
 *     exact metric and must agree event for event, tick for tick and
 *     counter for counter (a mismatch is a failure).
 *  3. The timed phase on the last instance: closed-loop batches until S
 *     host seconds have passed (and at least 100 batches), each timed
 *     around Simulator::runAll().
 * Every set-up and batch is preceded by a HostProbe run; its host time
 * is divided by the probe's time and multiplied by the probe's nominal
 * time, which cancels most of the shared host's speed swings.
 * With --trace 1 one more instance is built with the host-cost profiler
 * (sim::profile::setTiming) and benchmark-side spans on. Its check block
 * must equal the untraced ones (tracing may not change which code
 * runs), and its timed phase alternates traced and untraced batches so
 * the tracing overhead is a same-host, same-moment ratio. The
 * simulator's own tracer (trace::Tracer) stays off: with it on, the mesh
 * switches to its serialized engine, which the untraced run never uses.
 *
 * Output: a human-readable report, then one JSON line (the last line
 * of stdout) with `correct`, `attempted`, `failed` and `metrics`.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "vmmc/vmmc.hh"
#include "workload.hh"

namespace perfbench
{

namespace profile = shrimp::sim::profile;
using profile::Subsys;

namespace
{

constexpr int kSetupGroups = 11;
constexpr int kSetupsPerGroup = 10;
constexpr int kInstances = 5;
constexpr int kCheckBatches = 2;
constexpr std::size_t kMinBatches = 100;
constexpr std::size_t kSpanFileCap = 200000;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansOut;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
median(const std::vector<double> &v)
{
    return percentile(v, 50);
}

double
ratio(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

/** Exact simulated fingerprint of a block of batches. */
struct BlockSig
{
    std::uint64_t events = 0;
    std::uint64_t heapCallables = 0;
    Tick simStart = 0, simEnd = 0;
    StatSnap stats; //!< deltas over the block
};

/** One check block's exact fingerprint plus what the traced run needs
 *  from it. */
struct Block
{
    SetupTimes setup;
    BlockSig sig;
    ProfSnap prof;
    std::vector<Span> spans;
};

SetupTimes
setUp(Workload &w)
{
    SetupTimes st = w.setup();
    st.etherFrames = w.sys().machine().ether().framesDelivered();
    return st;
}

Block
runCheckBlock(Workload &w, Env &env, int batches)
{
    Block blk;
    auto &sim = w.sys().sim();
    StatSnap s0 = snapStats();
    ProfSnap p0 = ProfSnap::take();
    std::uint64_t h0 = sim.queue().heapCallables();
    blk.sig.simStart = sim.now();
    for (int b = 0; b < batches; ++b)
        blk.sig.events += w.runBatch(std::uint64_t(b));
    blk.sig.simEnd = sim.now();
    blk.sig.heapCallables = sim.queue().heapCallables() - h0;
    blk.sig.stats = diff(snapStats(), s0);
    blk.prof = ProfSnap::take().minus(p0);
    blk.spans = std::move(env.spans.all());
    env.spans.clear();
    return blk;
}

/** Compare two check blocks; every difference is one failure. */
void
compareBlocks(const Block &ref, const Block &got, Checker &ck,
              const char *what)
{
    std::string w(what);
    ck.expect(ref.setup.events == got.setup.events,
              (w + ": set-up event count").c_str());
    ck.expect(ref.setup.simEnd == got.setup.simEnd &&
                  ref.setup.etherFrames == got.setup.etherFrames,
              (w + ": set-up end tick and Ethernet frames").c_str());
    ck.expect(ref.sig.events == got.sig.events,
              (w + ": check-block event count").c_str());
    ck.expect(ref.sig.simStart == got.sig.simStart &&
                  ref.sig.simEnd == got.sig.simEnd,
              (w + ": check-block ticks").c_str());
    ck.expect(ref.sig.heapCallables == got.sig.heapCallables,
              (w + ": heap callables").c_str());
    ck.expect(ref.sig.stats == got.sig.stats,
              (w + ": stat counters").c_str());
}

/** Sim-time percentiles (us) of spans named @p name. */
double
simUs(const std::vector<Span> &spans, const char *name, double q)
{
    std::vector<double> v;
    for (const Span &s : spans)
        if (std::strcmp(s.name, name) == 0)
            v.push_back(double(s.simEnd - s.simStart) / 1e3);
    return percentile(v, q);
}

/** Aggregates of spans recorded in traced timed batches. */
struct SpanAgg
{
    std::vector<double> hostUs;
    double totalUs = 0;
    double selfUs = 0;
    std::size_t count = 0;
};

/** Fold one batch's spans into @p agg, computing self time: a span's
 *  duration minus the union of its children's intervals (children are
 *  spans whose op is this span's id). */
void
foldSpans(const std::vector<Span> &spans,
          std::map<std::string, SpanAgg> &agg)
{
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
    for (const Span &s : spans)
        if (s.op != 0)
            kids[s.op].push_back({s.hostStart, s.hostEnd});
    for (const Span &s : spans) {
        double dur = s.hostEnd - s.hostStart;
        double covered = 0;
        if (s.op == 0) {
            auto it = kids.find(s.id);
            if (it != kids.end()) {
                auto iv = it->second;
                std::sort(iv.begin(), iv.end());
                double cur = s.hostStart;
                for (auto [a, b] : iv) {
                    a = std::max(a, cur);
                    b = std::min(b, s.hostEnd);
                    if (b > a) {
                        covered += b - a;
                        cur = b;
                    }
                }
            }
        }
        SpanAgg &g = agg[s.name];
        g.hostUs.push_back(dur / 1e3);
        g.totalUs += dur / 1e3;
        g.selfUs += (dur - covered) / 1e3;
        ++g.count;
    }
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans,
           double t0)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    for (const Span &s : spans) {
        os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
           << ",\"parent\":" << s.op << ",\"host_start_ns\":"
           << std::int64_t(s.hostStart - t0) << ",\"host_end_ns\":"
           << std::int64_t(s.hostEnd - t0) << ",\"sim_start_ns\":"
           << s.simStart << ",\"sim_end_ns\":" << s.simEnd << "}\n";
    }
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--trace")
            a.trace = std::atoi(v) != 0;
        else if (k == "--spans-out")
            a.spansOut = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void
printJson(const Checker &ck, const std::vector<Metric> &ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                ck.failed() == 0 ? "true" : "false",
                (unsigned long long)ck.attempted(),
                (unsigned long long)ck.failed());
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    std::printf("}}\n");
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("\n%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

int
run(const Args &a)
{
    const double processStart = hostNs();
    Env env(a.seed);
    if (!makeWorkload(a.workload, env)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }

    // Host times below are normalised: each is scaled by
    // HostProbe::kNominalMs / (the probe's time right before it).
    HostProbe probe;
    auto scale = [&probe] { return HostProbe::kNominalMs / probe.runMs(); };

    // ---- phase 1: set-up groups ----------------------------------------
    // One sample is the mean of kSetupsPerGroup back-to-back set-ups (a
    // single one takes 0.1-2 ms, too short to time steadily).
    std::vector<double> setupS, buildS, connectS;
    for (int g = 0; g < kSetupGroups; ++g) {
        const double f = scale() / kSetupsPerGroup;
        double build = 0, connect = 0;
        for (int i = 0; i < kSetupsPerGroup; ++i) {
            SetupTimes st = makeWorkload(a.workload, env)->setup();
            build += st.buildS;
            connect += st.connectS;
        }
        setupS.push_back((build + connect) * f);
        buildS.push_back(build * f);
        connectS.push_back(connect * f);
    }

    // ---- phase 2: independent instances + check blocks ---------------
    Block ref;
    std::unique_ptr<Workload> w;
    for (int k = 0; k < kInstances; ++k) {
        w.reset();
        w = makeWorkload(a.workload, env);
        SetupTimes st = setUp(*w);
        Block blk = runCheckBlock(*w, env, kCheckBatches);
        blk.setup = st;
        if (k == 0)
            ref = std::move(blk);
        else
            compareBlocks(ref, blk, env.check, "determinism");
    }
    const double msgsPerBatch = double(w->msgsPerBatch());
    const double checkMsgs = msgsPerBatch * kCheckBatches;

    // ---- traced instance ---------------------------------------------
    Block traced;
    if (a.trace) {
        w.reset();
        w = makeWorkload(a.workload, env);
        profile::setTiming(true);
        SetupTimes st = setUp(*w);
        env.spans.setOn(true);
        traced = runCheckBlock(*w, env, kCheckBatches);
        traced.setup = st;
        compareBlocks(ref, traced, env.check, "trace fidelity");
        env.spans.setOn(false);
        profile::setTiming(false);
    }

    // ---- phase 3: timed closed-loop batches --------------------------
    std::vector<double> untracedMs, tracedMs; // normalised
    std::vector<double> rawMs, tracedScale;   // untraced raw; traced scale
    double untracedNs = 0, tracedNs = 0;      // raw sums
    std::uint64_t untracedEvents = 0;
    ProfSnap tracedProf;
    StatSnap tracedStats;
    std::map<std::string, SpanAgg> agg;
    std::vector<Span> keep;
    const double phaseStart = hostNs();
    std::uint64_t b = std::uint64_t(kCheckBatches);
    for (std::size_t n = 0;; ++n, ++b) {
        double elapsed = (hostNs() - phaseStart) / 1e9;
        std::size_t have = std::min(untracedMs.size(),
                                    a.trace ? tracedMs.size() : kMinBatches);
        if (elapsed >= a.seconds && have >= kMinBatches)
            break;
        const bool tr = a.trace && (n % 2 == 1);
        const double f = scale();
        if (tr) {
            StatSnap s0 = snapStats();
            ProfSnap p0 = ProfSnap::take();
            profile::setTiming(true);
            env.spans.setOn(true);
            double t0 = hostNs();
            w->runBatch(b);
            double dt = hostNs() - t0;
            env.spans.setOn(false);
            profile::setTiming(false);
            tracedProf += ProfSnap::take().minus(p0);
            for (const auto &[k, v] : diff(snapStats(), s0))
                tracedStats[k] += v;
            tracedMs.push_back(dt / 1e6 * f);
            tracedScale.push_back(f);
            tracedNs += dt;
            foldSpans(env.spans.all(), agg);
            for (const Span &s : env.spans.all())
                if (keep.size() < kSpanFileCap)
                    keep.push_back(s);
            env.spans.clear();
        } else {
            double t0 = hostNs();
            untracedEvents += w->runBatch(b);
            double dt = hostNs() - t0;
            untracedMs.push_back(dt / 1e6 * f);
            rawMs.push_back(dt / 1e6);
            untracedNs += dt;
        }
    }

    // ---- metrics -----------------------------------------------------
    const double batchP50 = percentile(untracedMs, 50);
    const double msgsPerS = msgsPerBatch / (batchP50 / 1e3);
    const double eventsPerBatch =
        ratio(double(untracedEvents), double(untracedMs.size()));
    const double simUsPerMsg =
        double(ref.sig.simEnd - ref.sig.simStart) / 1e3 / checkMsgs;
    const double failFrac = ratio(double(env.check.failed()),
                                  double(env.check.attempted()));

    std::printf("perfbench %s seed=%llu: %d instances, check block %d x %.0f "
                "msgs, timed phase %zu untraced batches (%.2f s)",
                a.workload.c_str(), (unsigned long long)a.seed,
                kInstances, kCheckBatches, msgsPerBatch,
                untracedMs.size(), untracedNs / 1e9);
    if (a.trace)
        std::printf(" + %zu traced batches (%.2f s)", tracedMs.size(),
                    tracedNs / 1e9);
    std::printf(", process %.2f s\n", (hostNs() - processStart) / 1e9);

    // Gated in BENCHMARK.json (the result line of an untraced run).
    std::vector<Metric> e2e = {
        {"msgs_per_s", msgsPerS, "msg/s"},
        {"batch_ms_p50", batchP50, "ms"},
        {"batch_ms_p90", percentile(untracedMs, 90), "ms"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_us_per_msg", simUsPerMsg, "sim_us"},
    };
    // Reported, not gated: raw (unnormalised) host times, which flip
    // with the host's state; fail_frac is the result line's
    // failed/attempted and is 0 when the run is right.
    std::vector<Metric> info = {
        {"fail_frac", failFrac, "ratio"},
        {"batch_samples", double(untracedMs.size()), "count"},
        {"msgs_per_batch", msgsPerBatch, "msg"},
        {"raw_batch_ms_p5", percentile(rawMs, 5), "ms"},
        {"raw_batch_ms_p50", percentile(rawMs, 50), "ms"},
        {"raw_batch_ms_p90", percentile(rawMs, 90), "ms"},
        {"raw_msgs_per_s_mean", msgsPerBatch * double(rawMs.size()) /
                                    (untracedNs / 1e9),
         "msg/s"},
    };

    std::vector<Metric> layer;
    if (a.trace) {
        const StatSnap &st = traced.sig.stats;
        const ProfSnap &cp = traced.prof;
        const double packets = sumSuffix(st, ".nic.out.packetsFormed");
        const double nicHostNs = tracedProf.hostNs(Subsys::Packetizer) +
                                 tracedProf.hostNs(Subsys::Nic) +
                                 tracedProf.hostNs(Subsys::Du) +
                                 tracedProf.hostNs(Subsys::Dma);
        const double netHostNs = tracedProf.hostNs(Subsys::Mesh) +
                                 tracedProf.hostNs(Subsys::Router);
        // Per-layer host times from traced batches, normalised by the
        // median probe scale of those batches.
        const double ft = percentile(tracedScale, 50);
        auto hostUs = [&](const char *name, double q) {
            auto it = agg.find(name);
            return it == agg.end() ? 0.0
                                   : percentile(it->second.hostUs, q) * ft;
        };
        const std::vector<Span> &cs = traced.spans;
        const bool isNx = a.workload == "nx_mesh16";
        layer = {
            {"sim.events_per_msg", double(ref.sig.events) / checkMsgs,
             "count"},
            {"sim.heap_callables_per_msg",
             double(ref.sig.heapCallables) / checkMsgs, "count"},
            {"sim.setup_events", double(ref.setup.events), "count"},
            {"sim.host_ns_per_event", ratio(batchP50 * 1e6, eventsPerBatch),
             "ns"},
            {"sim.bus.host_share",
             ratio(tracedProf.hostNs(Subsys::Bus), tracedNs), "ratio"},
            {"sim.bus.occupancy_ns_per_msg",
             sumSuffix(st, ".occupancyNs") / checkMsgs, "sim_ns"},
            {"node.cpu.host_share",
             ratio(tracedProf.hostNs(Subsys::Cpu), tracedNs), "ratio"},
            {"node.cpu.events_per_msg",
             double(cp.events(Subsys::Cpu)) / checkMsgs, "count"},
            {"node.cpu.busy_sim_ns_per_msg",
             sumSuffix(st, ".cpu.busyNs") / checkMsgs, "sim_ns"},
            {"node.ether.frames", double(ref.setup.etherFrames), "count"},
            {"mem.build_s", median(buildS), "s"},
            {"nic.packets_per_msg", packets / checkMsgs, "count"},
            {"nic.writes_combined_per_packet",
             ratio(sumSuffix(st, ".nic.out.writesCombined"), packets),
             "count"},
            {"nic.timer_flush_frac",
             ratio(sumSuffix(st, ".nic.out.timerFlushes"), packets),
             "ratio"},
            {"nic.opt_hit_ratio",
             ratio(sumSuffix(st, ".nic.optHits"),
                   sumSuffix(st, ".nic.optLookups")),
             "ratio"},
            {"nic.dma_bytes_per_msg",
             sumSuffix(st, ".nic.in.bytesDelivered") / checkMsgs, "B"},
            {"nic.host_share", ratio(nicHostNs, tracedNs), "ratio"},
            {"nic.host_ns_per_packet",
             ratio(nicHostNs * ft,
                   sumSuffix(tracedStats, ".nic.out.packetsFormed")),
             "ns"},
            {"net.packets_per_msg",
             sumSuffix(st, "mesh.packetsInjected") / checkMsgs, "count"},
            {"net.hops_mean",
             ratio(sumSuffix(st, "mesh.hops#sum"),
                   sumSuffix(st, "mesh.hops#count")),
             "count"},
            {"net.host_share", ratio(netHostNs, tracedNs), "ratio"},
            {"net.host_ns_per_packet",
             ratio(netHostNs * ft,
                   sumSuffix(tracedStats, "mesh.packetsInjected")),
             "ns"},
            {"vmmc.send_sim_us_p50", simUs(cs, "vmmc.send", 50), "sim_us"},
            {"vmmc.send_sim_us_p99", simUs(cs, "vmmc.send", 99), "sim_us"},
            {"vmmc.send_host_us_p50", hostUs("vmmc.send", 50), "us"},
            {"vmmc.import_setup_s", median(connectS), "s"},
            {"nx.csend_sim_us_p50", simUs(cs, "nx.csend", 50), "sim_us"},
            {"nx.csend_sim_us_p99", simUs(cs, "nx.csend", 99), "sim_us"},
            {"nx.crecv_wait_sim_us_p50", simUs(cs, "nx.crecv", 50),
             "sim_us"},
            {"nx.scouts_per_csend",
             ratio(sumSuffix(st, ".scouts"), sumSuffix(st, ".csends")),
             "ratio"},
            {"nx.init_s", isNx ? median(connectS) : 0.0, "s"},
            {"sock.send_sim_us_p50", simUs(cs, "sock.send", 50), "sim_us"},
            {"sock.send_sim_us_p99", simUs(cs, "sock.send", 99), "sim_us"},
            {"sock.send_host_us_p50", hostUs("sock.send", 50), "us"},
            {"rpc.call_sim_us_p50", simUs(cs, "rpc.call", 50), "sim_us"},
            {"rpc.call_sim_us_p99", simUs(cs, "rpc.call", 99), "sim_us"},
            {"rpc.call_host_us_p50", hostUs("rpc.call", 50), "us"},
            {"rpc.call_host_us_p99", hostUs("rpc.call", 99), "us"},
            {"srpc.call_sim_us_p50", simUs(cs, "srpc.call", 50), "sim_us"},
            {"srpc.call_sim_us_p99", simUs(cs, "srpc.call", 99), "sim_us"},
            {"srpc.call_host_us_p50", hostUs("srpc.call", 50), "us"},
            {"srpc.call_host_us_p99", hostUs("srpc.call", 99), "us"},
            {"profile.coverage", ratio(tracedProf.totalHostNs(), tracedNs),
             "ratio"},
            {"profile.other_share",
             ratio(tracedProf.hostNs(Subsys::Other), tracedNs), "ratio"},
            {"trace.overhead_ratio",
             ratio(percentile(untracedMs, 50), percentile(tracedMs, 50)),
             "ratio"},
        };

        std::printf("\nprofiler rows over traced batches (share of %.3f s "
                    "traced host time):\n",
                    tracedNs / 1e9);
        for (std::size_t i = 0; i < profile::numSubsys; ++i) {
            const auto s = Subsys(i);
            std::printf("  %-12s %12llu events %8.4f share %10.1f ns/event\n",
                        profile::name(s),
                        (unsigned long long)tracedProf.events(s),
                        ratio(tracedProf.hostNs(s), tracedNs),
                        ratio(tracedProf.hostNs(s),
                              double(tracedProf.events(s))));
        }
        std::printf("  %-12s %34.4f share (not attributed to any row)\n",
                    "uncovered",
                    1.0 - ratio(tracedProf.totalHostNs(), tracedNs));
        std::printf("\nspans over traced batches (host us):\n");
        std::printf("  %-18s %10s %12s %12s %10s %10s\n", "span", "count",
                    "total", "self", "p50", "p99");
        for (const auto &[name, g] : agg)
            std::printf("  %-18s %10zu %12.1f %12.1f %10.2f %10.2f\n",
                        name.c_str(), g.count, g.totalUs, g.selfUs,
                        percentile(g.hostUs, 50), percentile(g.hostUs, 99));
        if (!a.spansOut.empty())
            writeSpans(a.spansOut, keep, phaseStart);
    }

    printTable("end-to-end (untraced; gated in BENCHMARK.json):", e2e);
    printTable("end-to-end (untraced; reported only):", info);
    if (a.trace)
        printTable("per-layer (traced run):", layer);
    for (const std::string &f : env.check.firstFailures())
        std::printf("FAILED: %s\n", f.c_str());
    std::fflush(stdout);
    printJson(env.check, a.trace ? layer : e2e);
    return 0;
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, Env &env)
{
    if (name == "rpc_pingpong")
        return makeRpcPingpong(env);
    if (name == "bulk_stream")
        return makeBulkStream(env);
    if (name == "nx_mesh16")
        return makeNxMesh16(env);
    return nullptr;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args a;
    if (!perfbench::parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: shrimp_perfbench --workload W --seed N "
                     "--seconds S --trace 0|1 [--spans-out FILE]\n");
        return 2;
    }
    try {
        return perfbench::run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
