/**
 * @file
 * Tests for shrimp_analyze (tools/analyze): the seeded fixture corpus
 * under tests/analyze_fixtures/ must yield exactly the expected
 * finding per rule (and nothing for the near-miss negatives), the live
 * src/ tree must be clean modulo the checked-in baseline, and the
 * baseline matcher must behave as a multiset.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "analyzer.hh"
#include "baseline.hh"
#include "rules.hh"
#include "sarif.hh"

namespace shrimp::analyze
{
namespace
{

std::string
dump(const std::vector<Finding> &fs)
{
    std::string s;
    for (const Finding &f : fs)
        s += "  " + formatFinding(f) + "\n";
    return s;
}

std::multiset<std::string>
keys(const std::vector<Finding> &fs)
{
    std::multiset<std::string> k;
    for (const Finding &f : fs)
        k.insert(f.rule + "|" + f.fingerprint);
    return k;
}

TEST(Analyze, FixtureCorpusYieldsExactlyTheSeededViolations)
{
    const auto findings = analyzeTree(SHRIMP_ANALYZE_FIXTURES);

    const std::multiset<std::string> want = {
        "charged-time|Engine::deliver",
        "cross-node-deliver-uncharged|deliver/Lane::shove/Lane::shove",
        "cross-node-deliver-uncharged|deliver/Sink::take/Sink::take",
        "cross-node-escape|arg/Peer::send/stash",
        "cross-node-escape|carrier/Peer::fill/window",
        "cross-node-escape|store/Peer::link/other.back_",
        "cross-node-escape|store/Port::pair/other.peer_",
        "cross-node-wake-uncharged|wake/Hub::route/peer.notifyAll",
        "deadlock|order/Pair::a_->Pair::b_",
        "deadlock|order/Pair::b_->Pair::a_",
        "deadlock|reacquire/Pair::oops/Pair::a_",
        "deadlock|suspend/Guarded::waits/Guarded::m_",
        "determinism|banned/rand",
        "determinism|ptr-iter/live_",
        "determinism|ptr-iter/snap",
        "determinism-taint|indirect/paramSink/noisy",
        "determinism-taint|jitters/scheduleIn/delay",
        "determinism-taint|schedulesHost/scheduleIn/t",
        "determinism-taint|waitsNoisy/Delay/span",
        "dropped-task|dropsViaCall/tick/passed",
        "dropped-task|handsOff/container/work",
        "dropped-task|runsNothing/pump/stored",
        "dropped-task|runsNothing/tick",
        "dropped-task|stockpiles/container/backlog",
        "layering|cycle/base/loop_a.hh->base/loop_b.hh->base/loop_a.hh",
        "layering|mem/backdoor.hh->net/wire.hh",
        "suspend-under-exclusion|badCritical/gate_",
        "zero-delay-cycle|cycle/Ticker::arm/Ticker::arm",
    };
    EXPECT_EQ(keys(findings), want) << dump(findings);
}

TEST(Analyze, FixtureCorpusCoversEveryRule)
{
    const auto findings = analyzeTree(SHRIMP_ANALYZE_FIXTURES);
    std::set<std::string> rules;
    for (const Finding &f : findings)
        rules.insert(f.rule);
    std::set<std::string> want;
    for (const Rule &r : ruleTable())
        want.insert(r.name);
    EXPECT_EQ(rules, want) << dump(findings);
}

TEST(Analyze, FixtureFindingsCarryFileAndLine)
{
    for (const Finding &f : analyzeTree(SHRIMP_ANALYZE_FIXTURES)) {
        EXPECT_FALSE(f.file.empty()) << formatFinding(f);
        EXPECT_GT(f.line, 0) << formatFinding(f);
        EXPECT_FALSE(f.message.empty()) << formatFinding(f);
    }
}

TEST(Analyze, LiveTreeIsCleanModuloBaseline)
{
    const auto findings = analyzeTree(SHRIMP_ANALYZE_SRC);

    bool existed = false;
    const auto entries = loadBaseline(SHRIMP_ANALYZE_BASELINE, existed);
    ASSERT_TRUE(existed) << "missing " << SHRIMP_ANALYZE_BASELINE;

    const BaselineResult r = applyBaseline(findings, entries);
    EXPECT_TRUE(r.fresh.empty())
        << "new analyzer findings on src/ (fix or annotate; only pin "
           "deliberate debt in the baseline):\n"
        << dump(r.fresh);
    EXPECT_TRUE(r.stale.empty())
        << "stale baseline entries (debt paid off; remove them): "
        << r.stale.size();
}

TEST(Analyze, BaselineMatchesAsAMultiset)
{
    const Finding a{"r", "f.cc", 3, "fp", "msg"};
    const Finding b{"r", "f.cc", 9, "fp", "msg"}; // same fingerprint

    // One entry suppresses only one of two identical findings.
    BaselineResult r = applyBaseline({a, b}, {baselineEntry(a)});
    EXPECT_EQ(r.suppressed.size(), 1u);
    EXPECT_EQ(r.fresh.size(), 1u);
    EXPECT_TRUE(r.stale.empty());

    // Two entries suppress both; nothing is stale.
    r = applyBaseline({a, b}, {baselineEntry(a), baselineEntry(a)});
    EXPECT_EQ(r.suppressed.size(), 2u);
    EXPECT_TRUE(r.fresh.empty());
    EXPECT_TRUE(r.stale.empty());

    // An entry matching nothing is reported stale.
    r = applyBaseline({a}, {baselineEntry(a), "r|other.cc|fp"});
    EXPECT_TRUE(r.fresh.empty());
    ASSERT_EQ(r.stale.size(), 1u);
    EXPECT_EQ(r.stale[0], "r|other.cc|fp");
}

TEST(Analyze, FindingFormat)
{
    const Finding f{"dropped-task", "sim/x.cc", 12, "fn/callee", "boom"};
    EXPECT_EQ(formatFinding(f), "sim/x.cc:12: [dropped-task] boom");
    EXPECT_EQ(baselineEntry(f), "dropped-task|sim/x.cc|fn/callee");
}

TEST(Analyze, ColdAndWarmCacheRunsProduceIdenticalFindings)
{
    namespace fs = std::filesystem;
    const fs::path cache =
        fs::path(::testing::TempDir()) / "shrimp_analyze_warm_cache";
    fs::remove_all(cache);

    const auto plain = analyzeTree(SHRIMP_ANALYZE_FIXTURES);
    const auto cold =
        analyzeTrees({SHRIMP_ANALYZE_FIXTURES}, cache.string());
    const auto warm =
        analyzeTrees({SHRIMP_ANALYZE_FIXTURES}, cache.string());

    // The cache is an optimization only: cached and uncached runs, and
    // cold and warm runs, must be byte-identical.
    EXPECT_EQ(dump(cold), dump(plain));
    EXPECT_EQ(dump(warm), dump(cold));
    EXPECT_FALSE(fs::is_empty(cache)) << "warm run never wrote facts";
    fs::remove_all(cache);
}

TEST(Analyze, CacheInvalidatesWhenAFileChanges)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "shrimp_analyze_edit_tree";
    const fs::path cache =
        fs::path(::testing::TempDir()) / "shrimp_analyze_edit_cache";
    fs::remove_all(root);
    fs::remove_all(cache);
    fs::create_directories(root / "sim");

    const fs::path probe = root / "sim" / "probe.cc";
    {
        std::ofstream out(probe);
        out << "namespace x {\n"
               "template <typename T = void> class Task;\n"
               "Task<> work();\n"
               "void go()\n{\n    work();\n}\n"
               "} // namespace x\n";
    }
    const auto before = analyzeTrees({root.string()}, cache.string());
    ASSERT_EQ(before.size(), 1u) << dump(before);
    EXPECT_EQ(before[0].rule, "dropped-task");
    EXPECT_EQ(before[0].fingerprint, "go/work");

    // Rewrite the file with the bug fixed: the stale cache entry must
    // miss on the content hash and the finding must disappear.
    {
        std::ofstream out(probe);
        out << "namespace x {\n"
               "template <typename T = void> class Task;\n"
               "Task<> work();\n"
               "Task<> go()\n{\n    co_await work();\n}\n"
               "} // namespace x\n";
    }
    const auto after = analyzeTrees({root.string()}, cache.string());
    EXPECT_TRUE(after.empty()) << dump(after);

    fs::remove_all(root);
    fs::remove_all(cache);
}

TEST(Analyze, JobsOneAndManyProduceIdenticalOutput)
{
    const auto one = analyzeTrees({SHRIMP_ANALYZE_FIXTURES}, "", 1);
    const auto many = analyzeTrees({SHRIMP_ANALYZE_FIXTURES}, "", 4);
    const auto hw = analyzeTrees({SHRIMP_ANALYZE_FIXTURES}, "", 0);
    EXPECT_EQ(dump(many), dump(one));
    EXPECT_EQ(dump(hw), dump(one));
}

TEST(Analyze, BuildDirsAndDotDirsAreSkipped)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "shrimp_analyze_build_skip";
    fs::remove_all(root);
    fs::create_directories(root / "sim");
    fs::create_directories(root / "build");
    fs::create_directories(root / "build-asan" / "sim");
    fs::create_directories(root / ".cache");

    const char *bug = "namespace x {\n"
                      "template <typename T = void> class Task;\n"
                      "Task<> work();\n"
                      "void go()\n{\n    work();\n}\n"
                      "} // namespace x\n";
    std::ofstream(root / "sim" / "live.cc") << bug;
    std::ofstream(root / "build" / "gen.cc") << bug;
    std::ofstream(root / "build-asan" / "sim" / "gen.cc") << bug;
    std::ofstream(root / ".cache" / "gen.cc") << bug;

    const auto findings = analyzeTrees({root.string()});
    ASSERT_EQ(findings.size(), 1u) << dump(findings);
    EXPECT_EQ(findings[0].file, "sim/live.cc");
    fs::remove_all(root);
}

// ---------------------------------------------------------------------
// SARIF: a compact JSON reader (objects/arrays/strings/numbers/bools)
// sufficient to check the emitted report against the SARIF 2.1.0
// structure code-scanning backends require.

struct Json
{
    enum Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    } kind = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    const Json &operator[](const std::string &k) const
    {
        static const Json none;
        auto it = obj.find(k);
        return it == obj.end() ? none : it->second;
    }
    const Json &at(std::size_t i) const
    {
        static const Json none;
        return i < arr.size() ? arr[i] : none;
    }
};

struct JsonParser
{
    const std::string &s;
    std::size_t i = 0;
    bool ok = true;

    void ws()
    {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }
    bool eat(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }
    std::string string()
    {
        std::string out;
        if (!eat('"')) {
            ok = false;
            return out;
        }
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\' && i + 1 < s.size()) {
                const char e = s[i + 1];
                if (e == 'u' && i + 5 < s.size()) {
                    out += '?'; // escaped code point: presence suffices
                    i += 6;
                    continue;
                }
                out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
                i += 2;
                continue;
            }
            out += s[i++];
        }
        if (!eat('"'))
            ok = false;
        return out;
    }
    Json value()
    {
        Json v;
        ws();
        if (i >= s.size()) {
            ok = false;
            return v;
        }
        const char c = s[i];
        if (c == '{') {
            ++i;
            v.kind = Json::Obj;
            ws();
            if (eat('}'))
                return v;
            do {
                std::string key = string();
                if (!eat(':')) {
                    ok = false;
                    return v;
                }
                v.obj.emplace(std::move(key), value());
            } while (eat(','));
            if (!eat('}'))
                ok = false;
            return v;
        }
        if (c == '[') {
            ++i;
            v.kind = Json::Arr;
            ws();
            if (eat(']'))
                return v;
            do {
                v.arr.push_back(value());
            } while (eat(','));
            if (!eat(']'))
                ok = false;
            return v;
        }
        if (c == '"') {
            v.kind = Json::Str;
            v.str = string();
            return v;
        }
        if (s.compare(i, 4, "true") == 0) {
            v.kind = Json::Bool;
            v.b = true;
            i += 4;
            return v;
        }
        if (s.compare(i, 5, "false") == 0) {
            v.kind = Json::Bool;
            i += 5;
            return v;
        }
        if (s.compare(i, 4, "null") == 0) {
            i += 4;
            return v;
        }
        v.kind = Json::Num;
        std::size_t n = 0;
        v.num = std::stod(s.substr(i), &n);
        ok = ok && n > 0;
        i += n;
        return v;
    }
};

TEST(Analyze, SarifReportMatchesTheSarif210Structure)
{
    const auto findings = analyzeTree(SHRIMP_ANALYZE_FIXTURES);
    ASSERT_FALSE(findings.empty());
    const std::string text = sarifReport(findings, "src", {});

    JsonParser p{text};
    const Json doc = p.value();
    p.ws();
    ASSERT_TRUE(p.ok && p.i == text.size())
        << "SARIF output is not well-formed JSON";
    ASSERT_EQ(doc.kind, Json::Obj);

    EXPECT_NE(doc["$schema"].str.find("sarif-2.1.0"), std::string::npos);
    EXPECT_EQ(doc["version"].str, "2.1.0");

    ASSERT_EQ(doc["runs"].kind, Json::Arr);
    ASSERT_EQ(doc["runs"].arr.size(), 1u);
    const Json &run = doc["runs"].at(0);

    const Json &driver = run["tool"]["driver"];
    EXPECT_EQ(driver["name"].str, "shrimp_analyze");
    ASSERT_EQ(driver["rules"].kind, Json::Arr);
    ASSERT_FALSE(driver["rules"].arr.empty());
    std::vector<std::string> ruleIds;
    for (const Json &r : driver["rules"].arr) {
        EXPECT_FALSE(r["id"].str.empty());
        EXPECT_FALSE(r["shortDescription"]["text"].str.empty());
        ruleIds.push_back(r["id"].str);
    }
    // One descriptor per rule of the table, in table order.
    const std::vector<std::string> wantIds = {
        "dropped-task",
        "suspend-under-exclusion",
        "determinism",
        "layering",
        "charged-time",
        "deadlock",
        "determinism-taint",
        "cross-node-escape",
        "cross-node-deliver-uncharged",
        "cross-node-wake-uncharged",
        "zero-delay-cycle",
    };
    EXPECT_EQ(ruleIds, wantIds);

    ASSERT_EQ(run["results"].kind, Json::Arr);
    ASSERT_EQ(run["results"].arr.size(), findings.size());
    for (std::size_t k = 0; k < findings.size(); ++k) {
        const Json &res = run["results"].at(k);
        const Finding &f = findings[k];

        EXPECT_EQ(res["ruleId"].str, f.rule);
        ASSERT_EQ(res["ruleIndex"].kind, Json::Num);
        const std::size_t ri = std::size_t(res["ruleIndex"].num);
        ASSERT_LT(ri, ruleIds.size());
        EXPECT_EQ(ruleIds[ri], f.rule);

        EXPECT_FALSE(res["level"].str.empty());
        EXPECT_FALSE(res["message"]["text"].str.empty());

        const Json &loc =
            res["locations"].at(0)["physicalLocation"];
        EXPECT_EQ(loc["artifactLocation"]["uri"].str, "src/" + f.file);
        EXPECT_EQ(int(loc["region"]["startLine"].num), f.line);

        EXPECT_EQ(res["partialFingerprints"]["shrimpAnalyze/v1"].str,
                  f.rule + "|" + f.file + "|" + f.fingerprint);
    }
}

TEST(Analyze, SarifDriverDescribesTheOwnershipRules)
{
    const auto findings = analyzeTree(SHRIMP_ANALYZE_FIXTURES);
    const std::string text = sarifReport(findings, "src", {});
    JsonParser p{text};
    const Json doc = p.value();
    ASSERT_TRUE(p.ok);

    std::set<std::string> ids;
    for (const Json &r :
         doc["runs"].at(0)["tool"]["driver"]["rules"].arr)
        ids.insert(r["id"].str);
    EXPECT_EQ(ids.count("cross-node-escape"), 1u);
}

TEST(Analyze, SarifDriverDescribesTheLookaheadRules)
{
    const auto findings = analyzeTree(SHRIMP_ANALYZE_FIXTURES);
    const std::string text = sarifReport(findings, "src", {});
    JsonParser p{text};
    const Json doc = p.value();
    ASSERT_TRUE(p.ok);

    std::set<std::string> ids;
    for (const Json &r :
         doc["runs"].at(0)["tool"]["driver"]["rules"].arr)
        ids.insert(r["id"].str);
    EXPECT_EQ(ids.count("cross-node-deliver-uncharged"), 1u);
    EXPECT_EQ(ids.count("cross-node-wake-uncharged"), 1u);
    EXPECT_EQ(ids.count("zero-delay-cycle"), 1u);
}

} // namespace
} // namespace shrimp::analyze
