#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "base/stats.hh"

namespace perfbench
{

double
hostNs()
{
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

double
HostProbe::runMs()
{
    constexpr std::size_t kPending = 512;
    constexpr int kSteps = 4000;
    const double t0 = hostNs();
    Rng rng(7);
    heap_.clear();
    for (std::size_t i = 0; i < kPending; ++i) {
        heap_.push_back(rng.below(10000));
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    for (int i = 0; i < kSteps; ++i) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        const std::uint64_t t = heap_.back();
        sink_ += t;
        heap_.back() = t + 1 + rng.below(10000);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return (hostNs() - t0) / 1e6;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    Rng r(a ^ (b * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull));
    r.next();
    return r.next();
}

std::vector<std::size_t>
stratifiedSizes(Rng &rng, std::size_t n, std::size_t lo, std::size_t hi,
                std::size_t align)
{
    std::vector<std::size_t> out;
    out.reserve(n);
    const double width = double(hi - lo + 1) / double(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto s = std::size_t(double(lo) + (double(i) + rng.unit()) * width);
        s = std::clamp(s / align * align, (lo + align - 1) / align * align,
                       hi / align * align);
        out.push_back(s);
    }
    rng.shuffle(out);
    return out;
}

Payload::Payload(std::uint64_t seed) : pool_(poolBytes + maxLen)
{
    Rng rng(mix(seed, 0x7061796c6f6164ull));
    for (std::size_t i = 0; i < pool_.size(); i += 8) {
        std::uint64_t w = rng.next();
        std::memcpy(&pool_[i], &w, 8);
    }
    // Little-endian words: byte 3 of each word is the top byte.
    for (std::size_t i = 3; i < pool_.size(); i += 4)
        pool_[i] &= 0x7f;
}

const std::uint8_t *
Payload::at(std::uint64_t key, std::size_t len) const
{
    if (len > maxLen)
        throw std::length_error("payload longer than Payload::maxLen");
    std::size_t off = std::size_t(mix(key, 0x6f6666ull) % poolBytes) & ~3u;
    return pool_.data() + off;
}

void
Checker::fail(const std::string &what)
{
    ++failed_;
    if (first_.size() < 8)
        first_.push_back(what);
}

std::size_t
Spans::begin(const char *name, std::uint64_t op, Tick now)
{
    if (!on_)
        return noSpan;
    Span s;
    s.name = name;
    s.op = op;
    s.id = nextId_++;
    s.simStart = now;
    s.hostStart = hostNs();
    spans_.push_back(s);
    return spans_.size() - 1;
}

std::size_t
Spans::beginOp(const char *name, std::uint64_t op, Tick now)
{
    std::size_t idx = begin(name, 0, now);
    if (idx != noSpan)
        spans_[idx].id = op;
    return idx;
}

void
Spans::end(std::size_t idx, Tick now)
{
    if (idx == noSpan)
        return;
    spans_[idx].hostEnd = hostNs();
    spans_[idx].simEnd = now;
}

StatSnap
snapStats()
{
    StatSnap s;
    for (const auto *g : shrimp::stats::StatRegistry::global().groups()) {
        const std::string prefix = g->name() + ".";
        for (const auto &[name, c] : g->counters())
            s[prefix + name] += double(c.value());
        for (const auto &[name, d] : g->distributions()) {
            s[prefix + name + "#count"] += double(d.count());
            s[prefix + name + "#sum"] += d.sum();
        }
    }
    return s;
}

StatSnap
diff(const StatSnap &a, const StatSnap &b)
{
    StatSnap out;
    for (const auto &[k, v] : a) {
        auto it = b.find(k);
        out[k] = v - (it == b.end() ? 0.0 : it->second);
    }
    return out;
}

double
sumSuffix(const StatSnap &s, const std::string &suffix)
{
    double sum = 0;
    for (const auto &[k, v] : s)
        if (k.size() >= suffix.size() &&
            k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0)
            sum += v;
    return sum;
}

ProfSnap
ProfSnap::take()
{
    namespace profile = shrimp::sim::profile;
    ProfSnap p;
    for (std::size_t i = 0; i < profile::numSubsys; ++i)
        p.rows[i] = profile::row(profile::Subsys(i));
    return p;
}

ProfSnap
ProfSnap::minus(const ProfSnap &o) const
{
    ProfSnap p;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        p.rows[i].events = rows[i].events - o.rows[i].events;
        p.rows[i].hostNs = rows[i].hostNs - o.rows[i].hostNs;
    }
    return p;
}

ProfSnap &
ProfSnap::operator+=(const ProfSnap &o)
{
    for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i].events += o.rows[i].events;
        rows[i].hostNs += o.rows[i].hostNs;
    }
    return *this;
}

double
ProfSnap::totalHostNs() const
{
    double t = 0;
    for (const auto &r : rows)
        t += double(r.hostNs);
    return t;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q / 100.0 * double(v.size() - 1);
    auto lo = std::size_t(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
