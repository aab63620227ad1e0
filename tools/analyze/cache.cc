#include "cache.hh"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace shrimp::analyze
{

namespace
{

/** Bump when any serialized structure changes shape.
 *  v2: `analyze: shared(...)` annotations join the mined facts.
 *  v3: annotations carry their parenthesized argument (the lookahead
 *      vocabulary needs the edge-class / reason text).
 *  v4: annotations drop the argument again; `node-owned` and the
 *      `cross-node-*` vocabulary replace `shared` and `lookahead-*`. */
constexpr int kFormatVersion = 4;

/** "-" stands in for an empty string in fixed (non-trailing) fields. */
std::string
fixed(const std::string &s)
{
    return s.empty() ? "-" : s;
}

std::string
unfixed(const std::string &s)
{
    return s == "-" ? "" : s;
}

/** The rest of @p in's current line (single leading space skipped). */
std::string
restOfLine(std::istringstream &in)
{
    std::string rest;
    std::getline(in, rest);
    if (!rest.empty() && rest.front() == ' ')
        rest.erase(rest.begin());
    return rest;
}

} // namespace

std::string
contentHash(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull; // FNV offset basis
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull; // FNV prime
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
cacheEntryName(const std::string &rel)
{
    std::string out;
    out.reserve(rel.size() + 8);
    for (const char c : rel) {
        if (c == '/')
            out += "__";
        else
            out += c;
    }
    return out + ".facts";
}

void
storeCachedFile(const std::string &path, const std::string &hash,
                const SourceFile &f)
{
    std::ostringstream o;
    o << "shrimp_analyze_cache " << kFormatVersion << " " << hash << "\n";

    for (const Token &t : f.toks)
        o << "t " << int(t.kind) << " " << t.line << " " << t.text
          << "\n";
    for (const Annotation &a : f.annotations)
        o << "a " << a.line << " " << a.rule << "\n";
    for (const auto &[line, inc] : f.includes)
        o << "i " << line << " " << inc << "\n";
    for (const ClassDef &c : f.classes)
        o << "c " << c.line << " " << c.bodyBegin << " " << c.bodyEnd
          << " " << c.name << "\n";
    for (const FieldDecl &fd : f.fields)
        o << "g " << fd.line << " " << fixed(fd.className) << " "
          << fd.name << " " << fd.type << "\n";
    for (const auto &[name, type] : f.aliases)
        o << "u " << name << " " << type << "\n";
    for (const FnDef &fn : f.fns) {
        o << "f " << fn.line << " " << fn.bodyBegin << " " << fn.bodyEnd
          << " " << int(fn.returnsTask) << " " << fixed(fn.name) << " "
          << fixed(fn.qualName) << " " << fixed(fn.className) << " "
          << fn.retType << "\n";
        for (const Param &pa : fn.params)
            o << "p " << fixed(pa.name) << " " << pa.type << "\n";
        for (const Local &l : fn.locals)
            o << "l " << l.line << " " << fixed(l.name) << " " << l.type
              << "\n";
    }
    for (const MemberDecl &m : f.members) {
        o << "m " << m.line << " " << int(m.returnsTask) << " "
          << int(m.isPublic) << " " << fixed(m.className) << " "
          << fixed(m.name) << " " << m.retType << "\n";
        for (const Param &pa : m.params)
            o << "q " << fixed(pa.name) << " " << pa.type << "\n";
    }
    o << "e\n";

    std::ofstream out(path, std::ios::trunc);
    if (out)
        out << o.str();
}

bool
loadCachedFile(const std::string &path, const std::string &hash,
               SourceFile &f)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    std::istringstream is(ss.str());

    std::string magic, storedHash;
    int version = 0;
    is >> magic >> version >> storedHash;
    if (magic != "shrimp_analyze_cache" || version != kFormatVersion ||
        storedHash != hash)
        return false;
    restOfLine(is);

    SourceFile tmp;
    tmp.rel = f.rel;
    tmp.dir = f.dir;
    tmp.isHeader = f.isHeader;

    bool sawEnd = false;
    std::string tag;
    while (is >> tag) {
        if (tag == "t") {
            int kind = 0;
            Token t;
            if (!(is >> kind >> t.line))
                return false;
            t.kind = static_cast<Tok>(kind);
            t.text = restOfLine(is);
            tmp.toks.push_back(std::move(t));
        } else if (tag == "a") {
            Annotation a;
            if (!(is >> a.line >> a.rule))
                return false;
            restOfLine(is);
            tmp.annotations.push_back(std::move(a));
        } else if (tag == "i") {
            int line = 0;
            std::string inc;
            if (!(is >> line >> inc))
                return false;
            restOfLine(is);
            tmp.includes.emplace_back(line, std::move(inc));
        } else if (tag == "c") {
            ClassDef c;
            if (!(is >> c.line >> c.bodyBegin >> c.bodyEnd >> c.name))
                return false;
            restOfLine(is);
            tmp.classes.push_back(std::move(c));
        } else if (tag == "g") {
            FieldDecl fd;
            if (!(is >> fd.line >> fd.className >> fd.name))
                return false;
            fd.className = unfixed(fd.className);
            fd.type = restOfLine(is);
            tmp.fields.push_back(std::move(fd));
        } else if (tag == "u") {
            std::string name;
            if (!(is >> name))
                return false;
            tmp.aliases.emplace_back(std::move(name), restOfLine(is));
        } else if (tag == "f") {
            FnDef fn;
            int rt = 0;
            if (!(is >> fn.line >> fn.bodyBegin >> fn.bodyEnd >> rt >>
                  fn.name >> fn.qualName >> fn.className))
                return false;
            fn.returnsTask = rt != 0;
            fn.name = unfixed(fn.name);
            fn.qualName = unfixed(fn.qualName);
            fn.className = unfixed(fn.className);
            fn.retType = restOfLine(is);
            tmp.fns.push_back(std::move(fn));
        } else if (tag == "p") {
            if (tmp.fns.empty())
                return false;
            Param pa;
            if (!(is >> pa.name))
                return false;
            pa.name = unfixed(pa.name);
            pa.type = restOfLine(is);
            tmp.fns.back().params.push_back(std::move(pa));
        } else if (tag == "l") {
            if (tmp.fns.empty())
                return false;
            Local l;
            if (!(is >> l.line >> l.name))
                return false;
            l.name = unfixed(l.name);
            l.type = restOfLine(is);
            tmp.fns.back().locals.push_back(std::move(l));
        } else if (tag == "m") {
            MemberDecl m;
            int rt = 0, pub = 0;
            if (!(is >> m.line >> rt >> pub >> m.className >> m.name))
                return false;
            m.returnsTask = rt != 0;
            m.isPublic = pub != 0;
            m.className = unfixed(m.className);
            m.name = unfixed(m.name);
            m.retType = restOfLine(is);
            tmp.members.push_back(std::move(m));
        } else if (tag == "q") {
            if (tmp.members.empty())
                return false;
            Param pa;
            if (!(is >> pa.name))
                return false;
            pa.name = unfixed(pa.name);
            pa.type = restOfLine(is);
            tmp.members.back().params.push_back(std::move(pa));
        } else if (tag == "e") {
            sawEnd = true;
            break;
        } else {
            return false;
        }
    }
    if (!sawEnd)
        return false;
    f = std::move(tmp);
    return true;
}

} // namespace shrimp::analyze
