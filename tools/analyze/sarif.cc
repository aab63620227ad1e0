#include "sarif.hh"

#include <cstddef>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "rules.hh"

namespace shrimp::analyze
{

namespace
{

/** JSON string escaping (control chars, quotes, backslashes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
sarifReport(const std::vector<Finding> &findings,
            const std::string &srcRootLabel,
            const std::set<std::string> &labeledRoots)
{
    // Every rule of the table in table order, then any other rule a
    // finding names, indexed for results.
    std::vector<std::pair<std::string, std::string>> rules;
    std::map<std::string, int> ruleIx;
    for (const Rule &r : ruleTable()) {
        ruleIx.emplace(r.name, int(rules.size()));
        rules.emplace_back(r.name, r.description);
    }
    for (const Finding &f : findings)
        if (ruleIx.emplace(f.rule, int(rules.size())).second)
            rules.emplace_back(f.rule, f.rule);

    std::ostringstream o;
    o << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"shrimp_analyze\",\n"
      << "          \"rules\": [\n";
    for (std::size_t i = 0; i < rules.size(); ++i) {
        o << "            {\n"
          << "              \"id\": \"" << jsonEscape(rules[i].first)
          << "\",\n"
          << "              \"shortDescription\": { \"text\": \""
          << jsonEscape(rules[i].second) << "\" }\n"
          << "            }" << (i + 1 < rules.size() ? "," : "") << "\n";
    }
    o << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";

    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        std::string uri = f.file;
        const std::size_t slash = uri.find('/');
        const std::string first =
            slash == std::string::npos ? uri : uri.substr(0, slash);
        if (labeledRoots.count(first) == 0 && !srcRootLabel.empty())
            uri = srcRootLabel + "/" + uri;
        o << "        {\n"
          << "          \"ruleId\": \"" << jsonEscape(f.rule) << "\",\n"
          << "          \"ruleIndex\": " << ruleIx.at(f.rule) << ",\n"
          << "          \"level\": \"warning\",\n"
          << "          \"message\": { \"text\": \""
          << jsonEscape(f.message) << "\" },\n"
          << "          \"locations\": [\n"
          << "            {\n"
          << "              \"physicalLocation\": {\n"
          << "                \"artifactLocation\": { \"uri\": \""
          << jsonEscape(uri) << "\" },\n"
          << "                \"region\": { \"startLine\": "
          << (f.line > 0 ? f.line : 1) << " }\n"
          << "              }\n"
          << "            }\n"
          << "          ],\n"
          << "          \"partialFingerprints\": {\n"
          << "            \"shrimpAnalyze/v1\": \""
          << jsonEscape(f.rule + "|" + f.file + "|" + f.fingerprint)
          << "\"\n"
          << "          }\n"
          << "        }" << (i + 1 < findings.size() ? "," : "") << "\n";
    }

    o << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
    return o.str();
}

} // namespace shrimp::analyze
