#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/logging.hh"
#include "base/span.hh"
#include "base/timeseries.hh"
#include "base/trace.hh"
#include "sim/profile.hh"

namespace shrimp::bench
{

namespace
{
bool gCheckDeterminism = false;
std::string gGoldenFile;       //!< verify hashes against this file
std::string gUpdateGoldenFile; //!< append this bench's hashes here
std::string gProgName;         //!< basename(argv[0]); keys golden rows

std::string
basenameOf(const char *path)
{
    const char *slash = std::strrchr(path, '/');
    return slash ? slash + 1 : path;
}
} // namespace

void
parseBenchFlags(int &argc, char **argv)
{
    gProgName = basenameOf(argv[0]);
    bool profile_requested = false;
    std::string profile_path = "profile.json";
    bool ts_requested = false;
    std::string ts_path = "timeseries.jsonl";
    Tick ts_period = 0; // 0 = timeseries module's default period
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check-determinism") == 0) {
            gCheckDeterminism = true;
        } else if (std::strncmp(argv[i], "--golden=", 9) == 0) {
            gGoldenFile = argv[i] + 9;
            gCheckDeterminism = true;
        } else if (std::strncmp(argv[i], "--update-golden=", 16) == 0) {
            gUpdateGoldenFile = argv[i] + 16;
            gCheckDeterminism = true;
        } else if (std::strncmp(argv[i], "--span-sample=", 14) == 0) {
            span::setSampleEvery(
                std::strtoull(argv[i] + 14, nullptr, 10));
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            profile_requested = true;
        } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
            profile_requested = true;
            profile_path = argv[i] + 10;
        } else if (std::strcmp(argv[i], "--timeseries") == 0) {
            ts_requested = true;
        } else if (std::strncmp(argv[i], "--timeseries=", 13) == 0) {
            ts_requested = true;
            ts_path = argv[i] + 13;
        } else if (std::strncmp(argv[i], "--timeseries-period=", 20) ==
                   0) {
            ts_requested = true;
            ts_period = Tick(std::strtoull(argv[i] + 20, nullptr, 10));
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    // Host-cost profiling reads a wall clock. Readings never feed back
    // into simulated state, but the determinism lanes exist precisely to
    // certify "no wall-clock reads during simulation", so keep them pure.
    if (profile_requested && gCheckDeterminism) {
        warn("--profile is ignored under --check-determinism (the "
             "determinism lane must not read the host clock)");
        profile_requested = false;
    }
    if (profile_requested)
        sim::profile::setOutputPath(profile_path);
    if (ts_requested)
        timeseries::configure(ts_path, ts_period);
    trace::parseCliFlags(argc, argv);
}

bool
checkDeterminismRequested()
{
    return gCheckDeterminism;
}

void
printBanner(const std::string &figure, const std::string &title,
            const std::string &paper_note)
{
    std::printf("==================================================="
                "===========\n");
    std::printf("%s — %s\n", figure.c_str(), title.c_str());
    std::printf("paper: %s\n", paper_note.c_str());
    std::printf("==================================================="
                "===========\n");
}

namespace
{

void
printOneTable(const char *what, const std::vector<Curve> &curves,
              const std::vector<std::size_t> &sizes, bool latency)
{
    if (sizes.empty())
        return;
    std::printf("\n%s\n", what);
    std::printf("%10s", "bytes");
    for (const Curve &c : curves)
        std::printf(" %12s", c.name.c_str());
    std::printf("\n");
    for (std::size_t size : sizes) {
        std::printf("%10zu", size);
        for (const Curve &c : curves) {
            auto it = c.points.find(size);
            if (it == c.points.end()) {
                std::printf(" %12s", "-");
            } else {
                std::printf(" %12.2f", latency ? it->second.latencyUs
                                               : it->second.bandwidthMBs);
            }
        }
        std::printf("\n");
    }
}

} // namespace

void
printFigure(const std::vector<Curve> &curves,
            const std::vector<std::size_t> &lat_sizes,
            const std::vector<std::size_t> &bw_sizes,
            const std::string &lat_label)
{
    printOneTable(lat_label.c_str(), curves, lat_sizes, true);
    printOneTable("bandwidth (MB/s)", curves, bw_sizes, false);
    std::printf("\n");
}

void
printTable(const std::string &header,
           const std::vector<std::string> &row_names,
           const std::vector<std::string> &col_names,
           const std::vector<std::vector<double>> &values)
{
    std::printf("\n%s\n", header.c_str());
    std::printf("%24s", "");
    for (const auto &c : col_names)
        std::printf(" %12s", c.c_str());
    std::printf("\n");
    for (std::size_t r = 0; r < row_names.size(); ++r) {
        std::printf("%24s", row_names[r].c_str());
        for (double v : values[r])
            std::printf(" %12.2f", v);
        std::printf("\n");
    }
    std::printf("\n");
}

namespace
{

/** Golden rows for this binary: "curve/size" -> hash. Lines are
 *  "<bench> <curve>/<size> <hash16>"; other benches' rows are skipped. */
std::map<std::string, std::uint64_t>
loadGolden(const std::string &path)
{
    std::map<std::string, std::uint64_t> golden;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        fatal(logging::format("cannot open golden hash file '%s'",
              path.c_str()));
    char bench[128], key[256];
    unsigned long long hash;
    while (std::fscanf(f, "%127s %255s %llx", bench, key, &hash) == 3) {
        if (gProgName == bench)
            golden[key] = hash;
    }
    std::fclose(f);
    return golden;
}

} // namespace

int
runDeterminismCheck(const std::vector<Curve> &curves,
                    const std::vector<std::size_t> &sizes,
                    MeasureFn measure_seconds)
{
    auto &tracer = trace::Tracer::instance();
    bool was_enabled = tracer.enabled();
    tracer.setEnabled(true);

    std::map<std::string, std::uint64_t> golden;
    if (!gGoldenFile.empty()) {
        golden = loadGolden(gGoldenFile);
        std::printf("verifying trace hashes against %zu golden row(s) "
                    "from %s\n", golden.size(), gGoldenFile.c_str());
    }
    std::FILE *update = nullptr;
    if (!gUpdateGoldenFile.empty()) {
        update = std::fopen(gUpdateGoldenFile.c_str(), "a");
        if (!update)
            fatal(logging::format(
                "cannot append to golden hash file '%s'",
                gUpdateGoldenFile.c_str()));
    }

    std::printf("determinism check: running each point twice and "
                "comparing trace-stream hashes\n");
    int points = 0, failures = 0;
    for (const Curve &c : curves) {
        for (std::size_t size : sizes) {
            if (!c.points.count(size))
                continue;
            ++points;
            tracer.clear();
            double s1 = measure_seconds(c.name, size);
            std::uint64_t h1 = tracer.hash();
            std::size_t n1 = tracer.events().size();
            tracer.clear();
            double s2 = measure_seconds(c.name, size);
            std::uint64_t h2 = tracer.hash();
            std::size_t n2 = tracer.events().size();
            if (h1 != h2 || s1 != s2) {
                ++failures;
                std::printf("  %s/%zu: DIVERGED (hash %016llx vs "
                            "%016llx, %zu vs %zu events, %.9f vs %.9f "
                            "simulated seconds)\n",
                            c.name.c_str(), size,
                            (unsigned long long)h1,
                            (unsigned long long)h2, n1, n2, s1, s2);
            } else {
                std::printf("  %s/%zu: ok (hash %016llx, %zu events)\n",
                            c.name.c_str(), size,
                            (unsigned long long)h1, n1);
            }
            std::string key =
                c.name + "/" + std::to_string(size);
            if (!golden.empty() || !gGoldenFile.empty()) {
                auto it = golden.find(key);
                if (it == golden.end()) {
                    ++failures;
                    std::printf("  %s: NO GOLDEN ROW (got %016llx; "
                                "regenerate with --update-golden)\n",
                                key.c_str(), (unsigned long long)h1);
                } else if (it->second != h1) {
                    ++failures;
                    std::printf("  %s: GOLDEN MISMATCH (golden %016llx "
                                "vs run %016llx) — simulated behaviour "
                                "changed\n",
                                key.c_str(),
                                (unsigned long long)it->second,
                                (unsigned long long)h1);
                }
            }
            if (update)
                std::fprintf(update, "%s %s %016llx\n", gProgName.c_str(),
                             key.c_str(), (unsigned long long)h1);
        }
    }
    if (update)
        std::fclose(update);
    tracer.clear();
    tracer.setEnabled(was_enabled);

    if (failures > 0) {
        std::printf("determinism check FAILED: %d of %d point(s) "
                    "diverged between runs\n", failures, points);
        return 1;
    }
    std::printf("determinism check passed: %d point(s), 2 runs each\n",
                points);
    return 0;
}

int
runGoogleBenchmarks(int argc, char **argv,
                    const std::vector<Curve> &curves,
                    const std::vector<std::size_t> &sizes,
                    MeasureFn measure_seconds)
{
    if (gCheckDeterminism)
        return runDeterminismCheck(curves, sizes,
                                   std::move(measure_seconds));
    for (const Curve &c : curves) {
        for (std::size_t size : sizes) {
            if (!c.points.count(size))
                continue;
            std::string name = c.name + "/" + std::to_string(size);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [measure_seconds, curve = c.name,
                 size](benchmark::State &state) {
                    for (auto _ : state) {
                        double secs = measure_seconds(curve, size);
                        state.SetIterationTime(secs);
                    }
                    state.SetBytesProcessed(
                        std::int64_t(state.iterations()) *
                        std::int64_t(size));
                })
                ->UseManualTime()
                ->Iterations(1);
        }
    }
    // Strip --trace=/--stats before google-benchmark sees them.
    trace::parseCliFlags(argc, argv);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace shrimp::bench
