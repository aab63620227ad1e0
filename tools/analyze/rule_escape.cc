/**
 * @file
 * cross-node-escape: nodes of the simulated machine interact only
 * through the modelled network (PAPER.md §3), so no node may hold the
 * address of another node's state. The rule works in two steps:
 *
 *  1. Node-owned classes. Seeds are every class named "Node" plus
 *     every class whose body carries an `// analyze: node-owned`
 *     comment (per-node objects a program creates outside Node, such
 *     as a vmmc::Endpoint). A class held by value — directly or
 *     through an owning wrapper (vector/unique_ptr/optional/map/...,
 *     project templates like Channel<T>) — by a node-owned class is
 *     node-owned too. References and pointers never propagate
 *     ownership, so an intra-node back-reference (ShrimpNic's
 *     `Memory &mem_`) changes nothing.
 *  2. Escapes. In every function body of the layered src dirs, the
 *     address of node-owned state (`this`, `&field`, a pointer to a
 *     node-owned class) is a finding when it is
 *       - stored into a field of a carrier (net::Packet, EtherFrame:
 *         messages that cross nodes by value),
 *       - stored into a foreign node-owned object reached through a
 *         ref/pointer parameter, or
 *       - passed to a method of such an object or of a carrier.
 */

#include <cstddef>
#include <deque>
#include <map>
#include <set>

#include "callgraph.hh"
#include "rules.hh"
#include "types.hh"

namespace shrimp::analyze
{

namespace
{

/** Template wrappers that do NOT own their pointee: reaching a class
 *  only through one of these is reference reachability, not value
 *  containment. Everything else (vector, unique_ptr, optional, map,
 *  project templates like Channel<T>) owns its arguments. */
const std::set<std::string> nonOwningWrappers = {
    "shared_ptr", "weak_ptr", "reference_wrapper", "span",
    "initializer_list", "function", "basic_string_view",
    "string_view",
};

/** Message types that cross node boundaries *by value*. Storing a
 *  pointer into one smuggles an address across the boundary. */
const std::set<std::string> carrierClasses = {
    "Packet", "EtherFrame",
};

bool
isCarrier(const std::string &cls)
{
    return carrierClasses.count(cls) != 0;
}

/** The outermost template name of @p type ("std::vector<X>" ->
 *  "vector"), or the last `::` component when not a template. */
std::string
outerName(const std::string &type)
{
    const std::size_t lt = type.find('<');
    std::string head = lt == std::string::npos ? type
                                               : type.substr(0, lt);
    const std::size_t colons = head.rfind("::");
    if (colons != std::string::npos)
        head = head.substr(colons + 2);
    while (!head.empty() && head.back() == ' ')
        head.pop_back();
    return head;
}

/** Top-level template arguments of @p type, split on depth-1 commas. */
std::vector<std::string>
templateArgs(const std::string &type)
{
    std::vector<std::string> out;
    const std::size_t lt = type.find('<');
    if (lt == std::string::npos)
        return out;
    int depth = 0;
    std::size_t start = lt + 1;
    for (std::size_t i = lt; i < type.size(); ++i) {
        const char c = type[i];
        if (c == '<') {
            ++depth;
        } else if (c == '>') {
            if (--depth == 0) {
                if (i > start)
                    out.push_back(type.substr(start, i - start));
                break;
            }
        } else if (c == ',' && depth == 1) {
            out.push_back(type.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string
trimmed(const std::string &s)
{
    std::string t = s;
    while (!t.empty() && t.back() == ' ')
        t.pop_back();
    std::size_t b = 0;
    while (b < t.size() && t[b] == ' ')
        ++b;
    return t.substr(b);
}

bool
isRefOrPtr(const std::string &rawType)
{
    const std::string t = trimmed(rawType);
    return !t.empty() && (t.back() == '&' || t.back() == '*');
}

/** Every in-scope class @p rawType holds *by value*: alias layers are
 *  walked with the ref/pointer check applied per layer (an alias to a
 *  pointer does not own), then wrappers/templates are unwrapped
 *  recursively. */
void
ownedClassesOf(const TypeIndex &ix, const std::set<std::string> &known,
               const std::string &rawType, std::vector<std::string> &out,
               int depth = 0)
{
    if (depth > 4)
        return;
    std::string t = trimmed(rawType);
    for (int guard = 0; guard < 8; ++guard) {
        if (isRefOrPtr(t))
            return;
        const std::string s = stripCv(t);
        auto it = ix.aliases.find(s);
        if (it == ix.aliases.end()) {
            t = s;
            break;
        }
        t = trimmed(it->second);
    }
    const std::string outer = outerName(t);
    if (nonOwningWrappers.count(outer) != 0)
        return;
    if (known.count(outer) != 0)
        out.push_back(outer);
    for (const std::string &arg : templateArgs(t))
        ownedClassesOf(ix, known, arg, out, depth + 1);
}

/** Does @p f carry a `node-owned` annotation inside @p cd's body and
 *  outside every class nested in it? */
bool
annotatedNodeOwned(const SourceFile &f, const ClassDef &cd)
{
    if (cd.bodyEnd == 0 || cd.bodyEnd > f.toks.size())
        return false;
    const auto lineOf = [&f](std::size_t tok) { return f.toks[tok].line; };
    for (const Annotation &a : f.annotations) {
        if (a.rule != "node-owned" || a.line < lineOf(cd.bodyBegin) ||
            a.line > lineOf(cd.bodyEnd - 1))
            continue;
        bool nested = false;
        for (const ClassDef &o : f.classes)
            if (o.bodyBegin > cd.bodyBegin && o.bodyEnd < cd.bodyEnd &&
                a.line >= lineOf(o.bodyBegin) &&
                a.line <= lineOf(o.bodyEnd - 1))
                nested = true;
        if (!nested)
            return true;
    }
    return false;
}

/** Step 1: the node-owned classes (seeds, then value containment). */
std::set<std::string>
nodeOwnedClasses(const Project &p)
{
    std::set<std::string> known;
    std::set<std::string> owned;
    std::deque<std::string> work;
    for (const SourceFile &f : p.files) {
        if (layerOf(f.dir) < 0)
            continue;
        for (const ClassDef &cd : f.classes) {
            if (cd.name.empty() || cd.name == "?")
                continue;
            known.insert(cd.name);
            if ((cd.name == "Node" || annotatedNodeOwned(f, cd)) &&
                owned.insert(cd.name).second)
                work.push_back(cd.name);
        }
    }
    while (!work.empty()) {
        const std::string cls = work.front();
        work.pop_front();
        auto fit = p.types.fields.find(cls);
        if (fit == p.types.fields.end())
            continue;
        for (const auto &[fname, ftype] : fit->second) {
            std::vector<std::string> held;
            ownedClassesOf(p.types, known, ftype, held);
            for (const std::string &t : held)
                if (owned.insert(t).second)
                    work.push_back(t);
        }
    }
    return owned;
}

/** Per-function context of the escape scan. */
struct Scan
{
    const Project &p;
    const SourceFile &f;
    const FnDef &fn;
    const std::set<std::string> &owned;
    const bool selfOwned;
    const std::map<std::string, std::string> *fields = nullptr;

    Scan(const Project &proj, const SourceFile &file, const FnDef &def,
         const std::set<std::string> &own)
        : p(proj), f(file), fn(def), owned(own),
          selfOwned(!def.className.empty() &&
                    own.count(def.className) != 0)
    {
        auto it = proj.types.fields.find(def.className);
        if (!def.className.empty() && it != proj.types.fields.end())
            fields = &it->second;
    }

    /** Declared type of @p name: a local, then a parameter, then a
     *  field of the enclosing class ("" if unknown). */
    std::string typeOf(const std::string &name, bool &isField) const
    {
        isField = false;
        for (const Local &l : fn.locals)
            if (l.name == name)
                return l.type;
        for (const Param &pr : fn.params)
            if (pr.name == name)
                return pr.type;
        if (fields != nullptr) {
            auto it = fields->find(name);
            if (it != fields->end()) {
                isField = true;
                return it->second;
            }
        }
        return "";
    }

    bool nodeOwned(const std::string &cls) const
    {
        return owned.count(cls) != 0;
    }

    /** Is @p rawType's class node-owned state, not a carrier? */
    bool ownedState(const std::string &rawType) const
    {
        const std::string cls = typeClassName(p.types, rawType);
        return !isCarrier(cls) && nodeOwned(cls);
    }

    /** Is @p root a ref/pointer parameter to a node-owned class — an
     *  object that may belong to another node? */
    bool foreignParam(const std::string &root) const
    {
        for (const Param &pr : fn.params)
            if (pr.name == root)
                return isRefOrPtr(pr.type) &&
                       nodeOwned(typeClassName(p.types, pr.type));
        return false;
    }

    /** Does [lo, hi) produce an address of node-owned state? Returns
     *  the escaping state's name, "" when clean. */
    std::string escaping(std::size_t lo, std::size_t hi) const
    {
        const Tokens &toks = f.toks;
        for (std::size_t q = lo; q < hi && q < toks.size(); ++q) {
            const Token &t = toks[q];
            if (t.is("&") && q + 1 < hi && toks[q + 1].ident()) {
                // Address-of position only: `a & b` has an identifier
                // (or a closing bracket) on the left, an address-of
                // does not.
                const bool addrPos =
                    q == lo || toks[q - 1].is("=") ||
                    toks[q - 1].is("(") || toks[q - 1].is(",") ||
                    toks[q - 1].is("{") ||
                    (toks[q - 1].ident() && toks[q - 1].text == "return");
                if (!addrPos)
                    continue;
                const std::string &name = toks[q + 1].text;
                bool isField = false;
                const std::string rt = typeOf(name, isField);
                if (isField && selfOwned)
                    return fn.className + "::" + name;
                if (!rt.empty() && ownedState(rt))
                    return name;
                continue;
            }
            if (!t.ident())
                continue;
            const bool member =
                q > lo && (toks[q - 1].is(".") || toks[q - 1].is("->") ||
                           toks[q - 1].is("::"));
            if (t.text == "this" && selfOwned && !member)
                return "this";
            // A pointer-valued name whose pointee is node-owned escapes
            // when it flows as a value.
            if (member)
                continue;
            bool isField = false;
            const std::string rt = typeOf(t.text, isField);
            if (!rt.empty() && trimmed(rt).back() == '*' && ownedState(rt))
                return t.text;
        }
        return "";
    }

    void report(std::vector<Finding> &out, int line,
                const std::string &fingerprint,
                const std::string &message) const
    {
        if (!f.allows(line, "cross-node-escape"))
            out.push_back({"cross-node-escape", f.rel, line, fingerprint,
                           message});
    }
};

/** Root identifier of the receiver chain of a member call whose
 *  callee identifier sits at `nameIdx` ("other.buf.fill(" -> "other").
 *  Walks the `.`/`->` hops backwards the same way resolveReceiver
 *  does; "" when the chain starts with a call, subscript or `this`. */
std::string
receiverRoot(const Tokens &toks, std::size_t nameIdx)
{
    if (nameIdx < 1 ||
        !(toks[nameIdx - 1].is(".") || toks[nameIdx - 1].is("->")))
        return "";
    std::string root;
    std::size_t k = nameIdx - 1; // the `.`/`->` before the callee
    while (k > 0) {
        std::size_t end = k; // one past the current segment
        if (toks[end - 1].is(")")) {
            int depth = 0;
            std::size_t q = end;
            while (q-- > 0) {
                if (toks[q].is(")"))
                    ++depth;
                else if (toks[q].is("(") && --depth == 0)
                    break;
            }
            if (q == 0 || !toks[q - 1].ident())
                return "";
            root = toks[q - 1].text;
            end = q - 1;
        } else if (toks[end - 1].ident()) {
            root = toks[end - 1].text;
            end = end - 1;
        } else {
            return "";
        }
        if (end >= 1 &&
            (toks[end - 1].is(".") || toks[end - 1].is("->"))) {
            k = end - 1;
            continue;
        }
        if (end >= 1 && (toks[end - 1].is("]") || toks[end - 1].is(")")))
            return "";
        break;
    }
    return root;
}

/** Step 2 for one function: member stores, then call arguments. */
void
scanFunction(const Scan &s, std::vector<Finding> &out)
{
    const Tokens &toks = s.f.toks;
    const FnDef &fn = s.fn;
    const std::string key = fnKey(fn);

    // Member stores: `recv.field = <expr taking a node-owned address>`.
    std::size_t stmt = fn.bodyBegin + 1;
    int paren = 0;
    for (std::size_t k = fn.bodyBegin + 1; k < fn.bodyEnd; ++k) {
        const Token &t = toks[k];
        if (t.is("(") || t.is("[")) {
            ++paren;
            continue;
        }
        if (t.is(")") || t.is("]")) {
            --paren;
            continue;
        }
        if (!((t.is(";") && paren == 0) || t.is("{") || t.is("}")))
            continue;
        int d = 0;
        std::size_t eq = 0;
        for (std::size_t q = stmt; q < k; ++q) {
            if (toks[q].is("(") || toks[q].is("[") || toks[q].is("<"))
                ++d;
            else if (toks[q].is(")") || toks[q].is("]") ||
                     toks[q].is(">"))
                --d;
            else if (toks[q].is("=") && d <= 0) {
                eq = q;
                break;
            }
        }
        if (eq > stmt + 2 && toks[eq - 1].ident() &&
            (toks[eq - 2].is(".") || toks[eq - 2].is("->")) &&
            toks[stmt].ident()) {
            const std::string field = toks[eq - 1].text;
            const std::string recvClass =
                resolveReceiver(s.p, s.f, fn, eq - 2);
            const std::string root = toks[stmt].text;
            const std::string what = s.escaping(eq + 1, k);
            if (!what.empty() && isCarrier(recvClass)) {
                s.report(out, toks[stmt].line,
                         "carrier/" + key + "/" + field,
                         "address of node-owned state '" + what +
                             "' stored into carrier field " + recvClass +
                             "::" + field + " in " + key +
                             ": the pointer crosses the node boundary "
                             "with the message");
            } else if (!what.empty() && s.nodeOwned(recvClass) &&
                       s.foreignParam(root)) {
                s.report(out, toks[stmt].line,
                         "store/" + key + "/" + root + "." + field,
                         "address of node-owned state '" + what +
                             "' stored into foreign " + recvClass +
                             " '" + root + "' in " + key +
                             ": two nodes now alias one node's state");
            }
        }
        stmt = k + 1;
        paren = 0;
    }

    // Call arguments: `other.method(&ownedState)` where `other` is a
    // foreign node-owned object (or a carrier being populated).
    for (const CallSite &cs : callSites(s.p, s.f, fn)) {
        if (cs.recvChain.empty() || cs.resolvedClass.empty())
            continue;
        const std::string root = receiverRoot(toks, cs.nameIdx);
        const bool foreign = isCarrier(cs.resolvedClass) ||
                             (s.nodeOwned(cs.resolvedClass) &&
                              !root.empty() && s.foreignParam(root));
        if (!foreign)
            continue;
        for (const auto &[alo, ahi] :
             splitArgs(toks, cs.argsBegin, cs.argsEnd)) {
            const std::string what = s.escaping(alo, ahi);
            if (what.empty())
                continue;
            s.report(out, cs.line, "arg/" + key + "/" + cs.callee,
                     "address of node-owned state '" + what +
                         "' passed to " + cs.resolvedClass +
                         "::" + cs.callee + " on foreign receiver '" +
                         (root.empty() ? cs.recvChain : root) + "' in " +
                         key);
            break;
        }
    }
}

} // namespace

void
ruleCrossNodeEscape(const Project &p, std::vector<Finding> &out)
{
    const std::set<std::string> owned = nodeOwnedClasses(p);
    for (const SourceFile &f : p.files) {
        if (layerOf(f.dir) < 0)
            continue;
        for (const FnDef &fn : f.fns)
            scanFunction(Scan(p, f, fn, owned), out);
    }
}

} // namespace shrimp::analyze
