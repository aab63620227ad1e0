#include "base/trace.hh"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "base/config.hh"
#include "base/logging.hh"
#include "base/stats.hh"

namespace shrimp::trace
{

namespace detail
{
bool gEnabled = false;
} // namespace detail

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setEnabled(bool enabled)
{
    detail::gEnabled = enabled;
}

TrackId
Tracer::track(const std::string &name)
{
    for (TrackId i = 0; i < TrackId(tracks_.size()); ++i) {
        if (tracks_[i] == name)
            return i;
    }
    tracks_.push_back(name);
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i <= name.size(); ++i) { // includes the NUL
        h ^= static_cast<unsigned char>(i < name.size() ? name[i] : 0);
        h *= 1099511628211ull;
    }
    trackHashes_.push_back(h);
    return TrackId(tracks_.size() - 1);
}

std::uint64_t
Tracer::hash() const
{
    // FNV-1a, 64-bit.
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    for (const Event &e : events_) {
        mix(&e.tick, sizeof(e.tick));
        // The track name's pre-computed digest stands in for the name
        // itself (ids may differ across runs, digests may not).
        const std::uint64_t th = trackHashes_.at(e.track);
        mix(&th, sizeof(th));
        mix(e.name, std::strlen(e.name) + 1);
        mix(&e.phase, sizeof(e.phase));
        // Flow ids participate only for flow events, so the hash of a
        // stream recorded without spans is bit-identical to what this
        // function produced before flow phases existed (the golden
        // hashes in tests/golden_trace_hashes.txt must not move).
        if (e.phase >= Phase::FlowStart)
            mix(&e.id, sizeof(e.id));
    }
    return h;
}

namespace
{

void
writeJsonString(std::ostream &os, const char *s)
{
    os << '"';
    for (; *s; ++s) {
        switch (*s) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          default:
            if (static_cast<unsigned char>(*s) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", *s);
                os << buf;
            } else {
                os << *s;
            }
        }
    }
    os << '"';
}

/** Chrome trace timestamps are microseconds; ticks are nanoseconds.
 *  Integer formatting keeps the output byte-deterministic. */
void
writeTs(std::ostream &os, Tick tick)
{
    os << tick / 1000 << '.';
    char buf[4];
    std::snprintf(buf, sizeof(buf), "%03u", unsigned(tick % 1000));
    os << buf;
}

} // namespace

void
Tracer::writeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
          "\"args\":{\"name\":\"shrimp\"}}";

    // Name only the tracks that actually recorded something.
    std::vector<bool> used(tracks_.size(), false);
    for (const Event &e : events_)
        used[e.track] = true;
    for (TrackId t = 0; t < TrackId(tracks_.size()); ++t) {
        if (!used[t])
            continue;
        os << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,"
              "\"tid\":" << t << ",\"args\":{\"name\":";
        writeJsonString(os, tracks_[t].c_str());
        os << "}}";
    }

    for (const Event &e : events_) {
        os << ",\n{\"ph\":\"";
        switch (e.phase) {
          case Phase::Begin:
            os << 'B';
            break;
          case Phase::End:
            os << 'E';
            break;
          case Phase::Instant:
            os << 'i';
            break;
          case Phase::FlowStart:
            os << 's';
            break;
          case Phase::FlowStep:
            os << 't';
            break;
          case Phase::FlowEnd:
            os << 'f';
            break;
        }
        os << "\",\"name\":";
        writeJsonString(os, e.name);
        os << ",\"pid\":0,\"tid\":" << e.track << ",\"ts\":";
        writeTs(os, e.tick);
        if (e.phase == Phase::Instant)
            os << ",\"s\":\"t\"";
        if (e.phase >= Phase::FlowStart) {
            // Flow events carry the chain id; bp:"e" binds each arrow
            // endpoint to the enclosing slice so viewers draw the chain
            // through the actual spans on each track.
            os << ",\"cat\":\"span\",\"id\":" << e.id << ",\"bp\":\"e\"";
        }
        os << '}';
    }
    os << "\n]}\n";
}

bool
Tracer::writeJsonFile(const std::string &path) const
{
    std::ofstream f(path);
    if (!f) {
        warn(logging::format("cannot open trace output file %s",
                             path.c_str()));
        return false;
    }
    writeJson(f);
    return bool(f);
}

// ---- CLI / process-exit glue -------------------------------------------

namespace
{

std::string gOutputPath;
bool gStatsDump = false;

void
atExitDump()
{
    if (!gOutputPath.empty()) {
        if (Tracer::instance().writeJsonFile(gOutputPath)) {
            std::fprintf(stderr, "trace: wrote %zu events to %s\n",
                         Tracer::instance().events().size(),
                         gOutputPath.c_str());
        }
    }
    if (gStatsDump) {
        std::cout << "\n==== stats dump ====\n";
        stats::StatRegistry::global().dumpAll(std::cout);
    }
}

void
installAtExit()
{
    static bool installed = false;
    if (!installed) {
        installed = true;
        // Construct the singletons *before* registering the handler:
        // exit runs destructors and atexit handlers in reverse order,
        // so this keeps them alive while atExitDump reads them.
        Tracer::instance();
        stats::StatRegistry::global();
        std::atexit(atExitDump);
    }
}

} // namespace

const std::string &
outputPath()
{
    return gOutputPath;
}

void
setOutputPath(const std::string &path)
{
    gOutputPath = path;
    if (!path.empty()) {
        Tracer::instance().setEnabled(true);
        installAtExit();
    }
}

bool
statsDumpRequested()
{
    return gStatsDump;
}

void
setStatsDumpRequested(bool v)
{
    gStatsDump = v;
    if (v)
        installAtExit();
}

void
parseCliFlags(int &argc, char **argv)
{
    applyEnvOverrides();
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--trace=", 8) == 0) {
            setOutputPath(arg + 8);
        } else if (std::strcmp(arg, "--stats") == 0) {
            setStatsDumpRequested(true);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
}

} // namespace shrimp::trace
