#include "analyzer.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "cache.hh"
#include "dataflow.hh"
#include "lexer.hh"
#include "parse.hh"
#include "rules.hh"
#include "types.hh"

namespace shrimp::analyze
{

namespace fs = std::filesystem;

namespace
{

bool
isSourceExt(const std::string &ext)
{
    return ext == ".hh" || ext == ".cc" || ext == ".hpp" ||
           ext == ".cpp";
}

/** Directories the scan never descends into: build trees (any
 *  `build*` — a stray `cmake -B build-foo` inside a scan root must
 *  not pollute the symbol index) and dot-directories (.git, .cache). */
bool
skipDirName(const std::string &name)
{
    return name.rfind("build", 0) == 0 ||
           (!name.empty() && name[0] == '.');
}

/** One file scheduled for loading. Collected up front in sorted order
 *  so the parallel workers fill pre-assigned slots and the merged
 *  Project is byte-identical for any --jobs value. */
struct WorkItem
{
    fs::path abs;
    std::string rel;   //!< label-prefixed path ("tools/report/main.cc")
    std::string plain; //!< root-relative path (cache key source)
};

/** Lex/parse/extract one file, via the facts cache when possible. */
void
loadOne(const WorkItem &w, const std::string &cacheDir, SourceFile &f)
{
    std::ifstream in(w.abs);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    f.rel = w.rel;
    const std::size_t slash = f.rel.find('/');
    f.dir = slash == std::string::npos ? "" : f.rel.substr(0, slash);
    f.isHeader =
        w.plain.size() > 3 &&
        (w.plain.compare(w.plain.size() - 3, 3, ".hh") == 0 ||
         w.plain.compare(w.plain.size() - 4, 4, ".hpp") == 0);

    const std::string hash = contentHash(text);
    std::string cachePath;
    if (!cacheDir.empty())
        cachePath =
            (fs::path(cacheDir) / cacheEntryName(f.rel)).generic_string();

    if (cachePath.empty() || !loadCachedFile(cachePath, hash, f)) {
        lexFile(text, f);
        parseFile(f);
        extractTypes(f);
        if (!cachePath.empty())
            storeCachedFile(cachePath, hash, f);
    }
}

/** Canonicalize include directives against the loaded file set so the
 *  cycle check and layer rule see one name per file: exact match
 *  first, then relative to the includer's directory, then prefixed
 *  with each secondary root label. Unresolvable includes (system
 *  headers, generated files) are left as written. */
void
canonicalizeIncludes(Project &p, const std::vector<std::string> &labels)
{
    std::set<std::string> known;
    for (const SourceFile &f : p.files)
        known.insert(f.rel);

    for (SourceFile &f : p.files) {
        const std::size_t slash = f.rel.rfind('/');
        const std::string sibling =
            slash == std::string::npos ? "" : f.rel.substr(0, slash + 1);
        for (auto &[line, inc] : f.includes) {
            if (known.count(inc) != 0)
                continue;
            if (!sibling.empty() && known.count(sibling + inc) != 0) {
                inc = sibling + inc;
                continue;
            }
            for (const std::string &label : labels) {
                if (known.count(label + "/" + inc) != 0) {
                    inc = label + "/" + inc;
                    break;
                }
            }
        }
    }
}

} // namespace

Project
loadProject(const std::vector<std::string> &roots,
            const std::string &cacheDir, int jobs)
{
    Project p;
    if (!cacheDir.empty())
        fs::create_directories(cacheDir);

    std::vector<std::string> labels; // secondary-root path prefixes
    std::vector<WorkItem> items;
    for (std::size_t r = 0; r < roots.size(); ++r) {
        const std::string &root = roots[r];
        const std::string label =
            r == 0 ? "" : fs::path(root).filename().generic_string();
        if (r != 0)
            labels.push_back(label);

        std::vector<std::string> rels;
        for (auto it = fs::recursive_directory_iterator(root);
             it != fs::recursive_directory_iterator(); ++it) {
            const auto &ent = *it;
            if (ent.is_directory()) {
                if (skipDirName(
                        ent.path().filename().generic_string()))
                    it.disable_recursion_pending();
                continue;
            }
            if (!ent.is_regular_file())
                continue;
            if (!isSourceExt(ent.path().extension().string()))
                continue;
            rels.push_back(
                fs::relative(ent.path(), root).generic_string());
        }
        std::sort(rels.begin(), rels.end()); // host dir order varies

        for (const std::string &rel : rels)
            items.push_back({fs::path(root) / rel,
                             label.empty() ? rel : label + "/" + rel,
                             rel});
    }

    p.files.resize(items.size());
    std::size_t n = jobs <= 0
                        ? std::max(1u,
                                   std::thread::hardware_concurrency())
                        : std::size_t(jobs);
    n = std::min(n, items.size() == 0 ? std::size_t(1) : items.size());

    if (n <= 1) {
        for (std::size_t i = 0; i < items.size(); ++i)
            loadOne(items[i], cacheDir, p.files[i]);
    } else {
        // Workers pull indices from a shared counter and write into
        // their item's pre-assigned slot; cache entries are per-file
        // paths, so writes never collide. The merged order is the
        // collection order above regardless of scheduling.
        std::atomic<std::size_t> next{0};
        std::exception_ptr firstError;
        std::mutex errLock;
        auto worker = [&]() {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= items.size())
                    return;
                try {
                    loadOne(items[i], cacheDir, p.files[i]);
                } catch (...) {
                    const std::lock_guard<std::mutex> g(errLock);
                    if (!firstError)
                        firstError = std::current_exception();
                }
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (std::size_t t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
        if (firstError)
            std::rethrow_exception(firstError);
    }

    canonicalizeIncludes(p, labels);
    buildTaskIndex(p);
    buildTypeIndex(p);
    buildSummaries(p);
    return p;
}

Project
loadProject(const std::string &includeRoot)
{
    return loadProject(std::vector<std::string>{includeRoot}, "", 1);
}

const std::vector<Rule> &
ruleTable()
{
    static const std::vector<Rule> table = {
        {"dropped-task",
         "a call to a Task-returning function whose result is neither "
         "co_awaited, spawned, returned, nor (if stored) ever consumed: "
         "a simulated activity that silently never runs",
         ruleDroppedTask},
        {"suspend-under-exclusion",
         "a co_await between a lock/bus acquire() and its release() in "
         "the same body: an interleaving point inside a region the code "
         "treats as exclusively held",
         ruleSuspendUnderExclusion},
        {"determinism",
         "wall-clock/PRNG calls or iteration over pointer-keyed "
         "containers in src/sim and src/check: host-address-dependent "
         "order feeding simulated state or traces",
         ruleDeterminism},
        {"layering",
         "an include-graph cycle, or an include that climbs the layer "
         "order base < check/sim < mem < net/nic < node < vmmc < "
         "libraries",
         ruleLayering},
        {"charged-time",
         "a public Task-returning entry point in nic/ or mem/ that "
         "never charges CPU/bus time, directly or through its callees, "
         "and is not annotated `analyze: free`",
         ruleChargedTime},
        {"deadlock",
         "a lock-order cycle, a non-reentrant re-acquire, or a co_await "
         "while a lock acquired by an earlier callee is still held",
         ruleDeadlock},
        {"determinism-taint",
         "a wall-clock/PRNG value flowing into event scheduling: "
         "schedule(), scheduleIn/At(), Delay{...} or a parameter that "
         "provably reaches one",
         ruleTaint},
        {"cross-node-escape",
         "the address of node-owned state stored into a carrier "
         "(net::Packet) field or a foreign node's object, or passed to "
         "a foreign object's method",
         ruleCrossNodeEscape},
        {"cross-node-deliver-uncharged",
         "a `cross-node-deliver` effect reachable from a "
         "`cross-node-entry` with 0 charged simulated time",
         ruleCrossNodeDeliverUncharged},
        {"cross-node-wake-uncharged",
         "notifyAll/notifyWrite on a parameter-rooted waiter reachable "
         "from a `cross-node-entry` with 0 charged simulated time",
         ruleCrossNodeWakeUncharged},
        {"zero-delay-cycle",
         "a provably-zero scheduleIn whose target reaches the scheduler "
         "back through zero-charge call edges: an event chain that "
         "never advances simulated time",
         ruleZeroDelayCycle},
    };
    return table;
}

std::vector<Finding>
runRules(const Project &p)
{
    std::vector<Finding> out;
    for (const Rule &r : ruleTable())
        r.run(p, out);
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.fingerprint < b.fingerprint;
              });
    return out;
}

std::vector<Finding>
analyzeTree(const std::string &includeRoot)
{
    const Project p = loadProject(includeRoot);
    return runRules(p);
}

std::vector<Finding>
analyzeTrees(const std::vector<std::string> &roots,
             const std::string &cacheDir, int jobs)
{
    const Project p = loadProject(roots, cacheDir, jobs);
    return runRules(p);
}

std::string
formatFinding(const Finding &f)
{
    return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message;
}

} // namespace shrimp::analyze
