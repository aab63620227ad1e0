#include "callgraph.hh"

#include <cstddef>

#include "parse.hh"
#include "types.hh"

namespace shrimp::analyze
{

namespace
{

bool
isCallableName(const Token &t)
{
    static const std::set<std::string> kw = {
        "if", "for", "while", "switch", "catch", "return", "sizeof",
        "alignof", "new", "delete", "static_assert", "decltype",
        "co_await", "co_return", "co_yield", "throw",
        "void", "int", "char", "bool", "float", "double", "long",
        "short", "unsigned", "signed", "auto", "requires", "alignas",
        "defined", "assert", "noexcept",
    };
    return t.ident() && kw.count(t.text) == 0;
}

/** The declared type of plain name @p name in the scope of @p fn:
 *  locals first, then parameters, then fields of the enclosing class
 *  (and, as a last resort, any class the file declares — single-file
 *  fixtures have no enclosing qualName). "" when unknown. */
std::string
nameType(const Project &p, const SourceFile &f, const FnDef &fn,
         const std::string &name)
{
    for (const Local &l : fn.locals)
        if (l.name == name)
            return l.type;
    for (const Param &pa : fn.params)
        if (pa.name == name)
            return pa.type;
    if (!fn.className.empty()) {
        auto cit = p.types.fields.find(fn.className);
        if (cit != p.types.fields.end()) {
            auto fit = cit->second.find(name);
            if (fit != cit->second.end())
                return fit->second;
        }
    }
    (void)f;
    return "";
}

} // namespace

std::string
fnKey(const FnDef &fn)
{
    return fn.className.empty() ? fn.name
                                : fn.className + "::" + fn.name;
}

std::vector<std::pair<std::size_t, std::size_t>>
splitArgs(const Tokens &toks, std::size_t argsBegin, std::size_t argsEnd)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    if (argsBegin >= argsEnd)
        return out;
    int depth = 0;
    std::size_t start = argsBegin;
    for (std::size_t k = argsBegin; k < argsEnd; ++k) {
        const Token &t = toks[k];
        if (t.is("(") || t.is("[") || t.is("{"))
            ++depth;
        else if (t.is(")") || t.is("]") || t.is("}"))
            --depth;
        else if (t.is(",") && depth == 0) {
            out.emplace_back(start, k);
            start = k + 1;
        }
    }
    out.emplace_back(start, argsEnd);
    return out;
}

std::string
resolveReceiver(const Project &p, const SourceFile &f, const FnDef &fn,
                std::size_t dotIdx)
{
    const Tokens &toks = f.toks;

    // Collect the chain segments right-to-left: ident, ident() or
    // ident[] hops separated by `.`/`->`. A `)` or `]` that closes a
    // call or subscript hop is walked through; anything else ends the
    // chain.
    struct Seg
    {
        std::string name;
        bool isCall = false;
        bool isSubscript = false;
    };
    std::vector<Seg> segs;
    std::size_t k = dotIdx; // token index of the `.`/`->`
    while (k > 0) {
        std::size_t end = k; // one past segment
        const bool call = toks[end - 1].is(")");
        if (call || toks[end - 1].is("]")) {
            // Walk back over the balanced parens/brackets of the hop.
            const char *open = call ? "(" : "[";
            const char *close = call ? ")" : "]";
            int depth = 0;
            std::size_t q = end;
            while (q-- > 0) {
                if (toks[q].is(close))
                    ++depth;
                else if (toks[q].is(open) && --depth == 0)
                    break;
            }
            if (q == 0 || !toks[q - 1].ident())
                break;
            segs.push_back({toks[q - 1].text, call, !call});
            end = q - 1;
        } else if (toks[end - 1].ident()) {
            segs.push_back({toks[end - 1].text});
            end = end - 1;
        } else {
            break;
        }
        if (end >= 1 && (toks[end - 1].is(".") || toks[end - 1].is("->"))) {
            k = end - 1;
            continue;
        }
        // Chain starts here; make sure it is not `foo().bar` glued to
        // a longer expression we cannot resolve anyway.
        if (end >= 1 && (toks[end - 1].is("]") || toks[end - 1].is(")")))
            segs.clear();
        break;
    }
    if (segs.empty())
        return "";

    // Resolve left-to-right.
    std::string cls;
    for (std::size_t i = segs.size(); i-- > 0;) {
        const Seg &s = segs[i];
        std::string type;
        if (cls.empty()) {
            if (s.name == "this") {
                cls = fn.className;
                continue;
            }
            type = nameType(p, f, fn, s.name);
            if (type.empty() && s.isCall && !fn.className.empty()) {
                // `method().x`: the first hop is a call on *this.
                auto cit = p.types.methods.find(fn.className);
                if (cit != p.types.methods.end()) {
                    auto mit = cit->second.find(s.name);
                    if (mit != cit->second.end())
                        type = mit->second;
                }
            }
        } else if (s.isCall) {
            auto cit = p.types.methods.find(cls);
            if (cit == p.types.methods.end())
                return "";
            auto mit = cit->second.find(s.name);
            if (mit == cit->second.end())
                return "";
            type = mit->second;
        } else {
            auto cit = p.types.fields.find(cls);
            if (cit == p.types.fields.end())
                return "";
            auto fit = cit->second.find(s.name);
            if (fit == cit->second.end())
                return "";
            type = fit->second;
        }
        // `xs[i]`: the hop's class is the container's element.
        if (s.isSubscript)
            type = subscriptType(p.types, type);
        if (type.empty())
            return "";
        cls = typeClassName(p.types, type);
        if (cls.empty())
            return "";
    }
    return cls;
}

std::vector<CallSite>
callSites(const Project &p, const SourceFile &f, const FnDef &fn)
{
    const Tokens &toks = f.toks;
    std::vector<CallSite> out;

    // Statement boundaries, as in the statement-level rules: `;` at
    // paren depth 0, `{`, `}`.
    std::size_t stmt = fn.bodyBegin + 1;
    int paren = 0;
    std::vector<std::size_t> openCalls; // nameIdx of calls whose parens
                                        // are currently open

    std::size_t stmtEnd = stmt;
    bool stmtFlag = false;
    bool stmtRet = false;
    auto refreshStmt = [&](std::size_t k) {
        if (k < stmtEnd)
            return;
        std::size_t e = k;
        int depth = 0;
        for (; e < fn.bodyEnd; ++e) {
            const Token &t = toks[e];
            if (t.is("(") || t.is("["))
                ++depth;
            else if (t.is(")") || t.is("]"))
                --depth;
            else if ((t.is(";") && depth <= 0) || t.is("{") || t.is("}"))
                break;
        }
        stmtFlag = false;
        stmtRet = false;
        for (std::size_t q = stmt; q < e; ++q) {
            const Token &tq = toks[q];
            if (tq.is("return") || tq.is("co_return"))
                stmtFlag = stmtRet = true;
            else if (tq.is("co_await") || tq.is("co_yield"))
                stmtFlag = true;
        }
        stmtEnd = e + 1;
    };

    for (std::size_t k = fn.bodyBegin + 1; k < fn.bodyEnd; ++k) {
        const Token &t = toks[k];
        if (t.is("(") || t.is("[")) {
            ++paren;
            continue;
        }
        if (t.is(")") || t.is("]")) {
            --paren;
            while (!openCalls.empty() &&
                   paren <= out[openCalls.back()].parenDepth)
                openCalls.pop_back();
            continue;
        }
        if (t.is("{") || t.is("}")) {
            // Inside an open argument list a brace opens a lambda body
            // or a braced initializer, not a new statement: the
            // enclosing call must stay open so calls inside the lambda
            // keep their parent link (scheduleIn(0, [this] { run(); })).
            if (paren > 0) {
                paren += t.is("{") ? 1 : -1;
                while (!openCalls.empty() &&
                       paren <= out[openCalls.back()].parenDepth)
                    openCalls.pop_back();
                continue;
            }
            stmt = k + 1;
            stmtEnd = stmt;
            openCalls.clear();
            paren = 0; // resync if the stream was unbalanced
            continue;
        }
        if (t.is(";") && paren == 0) {
            stmt = k + 1;
            stmtEnd = stmt;
            openCalls.clear();
            continue;
        }
        if (!isCallableName(t) || k + 1 >= fn.bodyEnd ||
            !toks[k + 1].is("("))
            continue;

        refreshStmt(k);

        CallSite cs;
        cs.callee = t.text;
        cs.line = t.line;
        cs.nameIdx = k;
        cs.argsBegin = k + 2;
        cs.argsEnd = skipBalanced(toks, k + 1) - 1;
        cs.parenDepth = paren;
        cs.stmtConsumed = stmtFlag;
        cs.stmtReturns = stmtRet;

        if (!openCalls.empty()) {
            const CallSite &parent = out[openCalls.back()];
            cs.parentNameIdx = parent.nameIdx;
            int arg = 0;
            int depth = 0;
            for (std::size_t q = parent.argsBegin;
                 q < k && q < parent.argsEnd; ++q) {
                const Token &a = toks[q];
                if (a.is("(") || a.is("[") || a.is("{"))
                    ++depth;
                else if (a.is(")") || a.is("]") || a.is("}"))
                    --depth;
                else if (a.is(",") && depth == 0)
                    ++arg;
            }
            cs.argIndexInParent = arg;
        }

        // Receiver and key.
        if (k >= 1 && (toks[k - 1].is(".") || toks[k - 1].is("->"))) {
            cs.recvChain = "member";
            cs.resolvedClass = resolveReceiver(p, f, fn, k - 1);
            if (!cs.resolvedClass.empty())
                cs.key = cs.resolvedClass + "::" + cs.callee;
        } else if (k >= 2 && toks[k - 1].is("::") && toks[k - 2].ident()) {
            cs.recvChain = toks[k - 2].text + "::";
            const std::string &cls = toks[k - 2].text;
            if (p.types.methods.count(cls) != 0 &&
                p.types.methods.at(cls).count(cs.callee) != 0) {
                cs.resolvedClass = cls;
                cs.key = cls + "::" + cs.callee;
            }
        } else {
            // Unqualified: enclosing class first, then free functions.
            if (!fn.className.empty()) {
                auto cit = p.types.methods.find(fn.className);
                if (cit != p.types.methods.end() &&
                    cit->second.count(cs.callee) != 0) {
                    cs.resolvedClass = fn.className;
                    cs.key = fn.className + "::" + cs.callee;
                }
            }
            if (cs.key.empty() &&
                (p.types.freeFns.count(cs.callee) != 0 ||
                 p.summaries.count(cs.callee) != 0))
                cs.key = cs.callee;
        }

        openCalls.push_back(out.size());
        out.push_back(cs);
        ++paren; // account for the call's own `(` which we now step over
        ++k;     // skip the `(` token itself
    }
    return out;
}

} // namespace shrimp::analyze
