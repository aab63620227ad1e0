/**
 * @file
 * Measurement plumbing shared by the perfbench workloads: the seeded
 * input generator, the payload pattern every receiver checks, the
 * failure ledger behind `fail_frac`, benchmark-side spans around calls
 * into the simulator's libraries, and snapshots of the counters the
 * simulator's modules already export (StatRegistry, the event queue and
 * the host-cost profiler).
 *
 * Nothing here is part of the simulator: it only calls public functions
 * of src/ and reads its counters, so the code that is measured is the
 * code the figure benches run.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/profile.hh"

namespace perfbench
{

using shrimp::Tick;

/** Host steady-clock time in nanoseconds. */
double hostNs();

/**
 * Host-speed probe: a fixed event-queue-like kernel (a binary heap of
 * pending times, pop the earliest, push a later one) whose work never
 * changes with the simulator. The host this benchmark runs on switches
 * between an uncontended and a ~1.6x slower state every few hundred
 * milliseconds and drifts over minutes; timing the probe right before
 * each batch measures the state the batch runs in, and batch ÷ probe
 * cancels it. `kNominalMs` only sets the scale of normalised times: it
 * is about the probe's uncontended time on the machine the benchmark
 * was built on.
 */
class HostProbe
{
  public:
    static constexpr double kNominalMs = 0.4;

    /** Run the kernel once; @return its host time in ms. */
    double runMs();

  private:
    std::vector<std::uint64_t> heap_;
    std::uint64_t sink_ = 0;
};

/** splitmix64: small, fast and fully determined by its seed. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform double in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** Mix a seed with a stream id into an independent seed. */
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/**
 * Stratified sizes: @p n sizes in [lo, hi], one per equal-width stratum
 * with a seeded position inside it, rounded down to @p align and
 * shuffled. Every seed covers the whole range evenly, so per-message
 * averages depend on the seed far less than with independent draws.
 */
std::vector<std::size_t> stratifiedSizes(Rng &rng, std::size_t n,
                                         std::size_t lo, std::size_t hi,
                                         std::size_t align);

/**
 * The seeded byte pattern senders write and receivers verify. Every
 * word's top byte has its high bit clear, so a payload word can never
 * equal a flag word (tags have the high bit set).
 */
class Payload
{
  public:
    static constexpr std::size_t poolBytes = 64 * 1024;
    static constexpr std::size_t maxLen = 16 * 1024;
    static constexpr std::uint32_t tagBit = 0x80000000u;

    explicit Payload(std::uint64_t seed);

    /** Pattern of message @p key (any 64-bit id); word aligned. */
    const std::uint8_t *at(std::uint64_t key, std::size_t len) const;

  private:
    std::vector<std::uint8_t> pool_;
};

/**
 * Ledger of checked outcomes: every status, return value and payload a
 * workload checks is one attempt. Failures are counted, never asserted,
 * so a wrong output shows as `failed` in the result line.
 */
class Checker
{
  public:
    /** Count one checked outcome; a failure unless @p ok. */
    void expect(bool ok, const char *what)
    {
        ++attempted_;
        if (!ok)
            fail(what);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &firstFailures() const { return first_; }

  private:
    void fail(const std::string &what);

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> first_;
};

/** One benchmark-side span: a public call into a simulator module. */
struct Span
{
    const char *name = nullptr;
    std::uint64_t op = 0; //!< operation id (the parent); 0 for roots
    std::uint64_t id = 0; //!< this span's id (ops: the operation id)
    double hostStart = 0, hostEnd = 0;
    Tick simStart = 0, simEnd = 0;
};

/**
 * In-memory span recorder. Off by default: begin() then costs one
 * branch and records nothing, so untraced runs execute the same
 * simulator code with no clock reads.
 */
class Spans
{
  public:
    static constexpr std::size_t noSpan = ~std::size_t(0);

    bool on() const { return on_; }
    void setOn(bool on) { on_ = on; }

    /** Open span @p name under operation @p op (0: a root). */
    std::size_t begin(const char *name, std::uint64_t op, Tick now);
    void end(std::size_t idx, Tick now);

    /** Open a root operation span; its id is @p op. */
    std::size_t beginOp(const char *name, std::uint64_t op, Tick now);

    std::vector<Span> &all() { return spans_; }
    void clear() { spans_.clear(); }

  private:
    bool on_ = false;
    std::uint64_t nextId_ = 1ull << 40;
    std::vector<Span> spans_;
};

/** Flat copy of every live stat counter ("group.counter") and each
 *  distribution's count and sum ("group.dist#count"/"#sum"). */
using StatSnap = std::map<std::string, double>;

StatSnap snapStats();

/** a - b per key (keys of @p a). */
StatSnap diff(const StatSnap &a, const StatSnap &b);

/** Sum of entries whose key ends with @p suffix. */
double sumSuffix(const StatSnap &s, const std::string &suffix);

/** Per-subsystem profiler totals. */
struct ProfSnap
{
    std::array<shrimp::sim::profile::Row, shrimp::sim::profile::numSubsys>
        rows{};

    static ProfSnap take();
    ProfSnap minus(const ProfSnap &o) const;
    ProfSnap &operator+=(const ProfSnap &o);
    std::uint64_t events(shrimp::sim::profile::Subsys s) const
    {
        return rows[std::size_t(s)].events;
    }
    double hostNs(shrimp::sim::profile::Subsys s) const
    {
        return double(rows[std::size_t(s)].hostNs);
    }
    double totalHostNs() const;
};

/** Linear-interpolated percentile (@p q in [0, 100]) of @p v. */
double percentile(std::vector<double> v, double q);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
