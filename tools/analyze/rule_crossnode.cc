/**
 * @file
 * The cross-node timing rules. The simulator is single-threaded, but
 * its model is only faithful if every effect one node has on another
 * travels through a modelled, time-charging path: the iMRC mesh or
 * the Ethernet segment (PAPER.md §3). Three rules check that on the
 * call graph:
 *
 *   cross-node-deliver-uncharged  an annotated deliver effect (state
 *                                 becomes visible on another node)
 *                                 reachable from a cross-node entry
 *                                 with 0 charged simulated time
 *   cross-node-wake-uncharged     notifyAll/notifyWrite on a
 *                                 parameter-rooted receiver — a
 *                                 waiter the function does not own —
 *                                 reachable from an entry with 0
 *                                 charged simulated time
 *   zero-delay-cycle              a provably-zero scheduleIn whose
 *                                 target reaches the scheduler back
 *                                 through zero-charge call edges — an
 *                                 event chain that never advances time
 *
 * Annotation vocabulary (comments, mined by the lexer):
 *
 *   analyze: cross-node-entry     the function below (or enclosing the
 *                                 comment) starts a message that
 *                                 leaves the node
 *   analyze: cross-node-deliver   the statement below makes state
 *                                 visible on another node
 *   analyze: cross-node-exempt(reason)
 *                                 call edges leaving the covered lines
 *                                 stay on-node and carry no path
 *
 * Charge algebra (fold): a fold result is {lo, exact} where lo is a
 * sound lower bound under the simulator's invariant that every charge
 * is non-negative, and exact means lo is the actual value. Integer
 * literals fold to themselves; `+`/`*` compose; `-`, `/`, parentheses,
 * calls and unknown names fold to {0, inexact}; fields (MachineConfig
 * knobs included) fold to the minimum over their in-class initializer,
 * constructor-init-list and assignment sites (a provably-zero in-class
 * default is excluded while any other candidate exists — it is a
 * sentinel, not a charge); namespace-scope `constexpr` constants
 * (units::us, nxSendOverhead) fold to their initializers.
 *
 * A call edge weighs the unconditional charge prefix of the caller's
 * body before the call: awaited charge primitives (dataflow.hh) whose
 * latency argument folds, plus the delay of an enclosing scheduleIn.
 * A callee's own charges do not count toward its callers' edges.
 */

#include <algorithm>
#include <climits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "callgraph.hh"
#include "dataflow.hh"
#include "parse.hh"
#include "rules.hh"

namespace shrimp::analyze
{

namespace
{

/** A folded charge bound: @p lo is a sound lower bound (the simulator
 *  never charges negative time), @p exact means lo is the value. */
struct Bnd
{
    long long lo = 0;
    bool exact = false;
};

constexpr long long kInf = LLONG_MAX / 4;

struct Ctx
{
    const Project &p;
    /** bare constant name -> fold of its initializer (namespace-scope
     *  constexpr variables; collisions keep the minimum — sound). */
    std::map<std::string, Bnd> consts;
    std::map<std::string, Bnd> fieldMemo; //!< "Cls::field" -> bound
    std::set<std::string> fieldBusy;      //!< cycle guard
    int depth = 0;

    explicit Ctx(const Project &proj) : p(proj) {}
};

Bnd foldRange(Ctx &cx, const SourceFile &f, const FnDef *fn,
              std::size_t b, std::size_t e);
Bnd fieldBound(Ctx &cx, const std::string &cls,
               const std::string &field);

/** A numeric literal folds to its leading integer: exact when that is
 *  the whole token, a lower bound otherwise (`1.5`, `60u`, `1'000`). */
Bnd
foldNumber(const std::string &text)
{
    try {
        std::size_t used = 0;
        const long long v = std::stoll(text, &used, 0);
        return {v, used == text.size()};
    } catch (const std::exception &) {
        return {0, false};
    }
}

/**
 * Fold one factor starting at @p i inside [i, e). Advances @p i one
 * past the factor. Identifier chains resolve through the typed index:
 * `cfg.hopLatency` folds the receiver class's field, `units::us` the
 * namespace constant, a bare field of the enclosing class its
 * fieldBound(); calls, parentheses and unknown names fold {0,
 * inexact}.
 */
Bnd
foldFactor(Ctx &cx, const SourceFile &f, const FnDef *fn,
           std::size_t &i, std::size_t e)
{
    const Tokens &toks = f.toks;
    if (i >= e)
        return {0, false};
    const Token &t = toks[i];

    if (t.kind == Tok::Number) {
        ++i;
        return foldNumber(t.text);
    }
    if (!t.ident()) {
        ++i;
        return {0, false};
    }

    // Identifier chain `A::B`, `x.y->z`: find the final member name;
    // a chain containing a call folds to zero, conservatively.
    std::size_t k = i;
    std::size_t lastName = i;
    std::size_t lastSep = 0; //!< token index of the final `.`/`->`
    while (k < e) {
        if (toks[k].ident()) {
            lastName = k;
        } else if (toks[k].is(".") || toks[k].is("->")) {
            lastSep = k;
        } else if (toks[k].is("(") || toks[k].is("{")) {
            i = skipBalanced(toks, k);
            return {0, false};
        } else if (!toks[k].is("::")) {
            break;
        }
        ++k;
    }
    const std::string name = toks[lastName].text;
    i = k;

    const auto fieldOf = [&cx, &name](const std::string &cls) {
        const auto it = cx.p.types.fields.find(cls);
        return it != cx.p.types.fields.end() && it->second.count(name);
    };
    if (lastSep != 0) {
        // Member chain: resolve the receiver class of the last hop.
        const std::string cls =
            fn == nullptr ? "" : resolveReceiver(cx.p, f, *fn, lastSep);
        return fieldOf(cls) ? fieldBound(cx, cls, name) : Bnd{0, false};
    }

    // Bare (possibly ::-qualified) name.
    if (fn != nullptr) {
        for (const Local &l : fn->locals)
            if (l.name == name)
                return {0, false};
        for (const Param &pa : fn->params)
            if (pa.name == name)
                return {0, false};
        if (fieldOf(fn->className))
            return fieldBound(cx, fn->className, name);
    }
    const auto cit = cx.consts.find(name);
    return cit != cx.consts.end() ? cit->second : Bnd{0, false};
}

/** Fold [b, e) as `term + term + ...`, each term `factor * factor`.
 *  A top-level `-`, `/`, `?` or shift poisons the fold to {0,
 *  inexact} — still a sound lower bound for non-negative charges. */
Bnd
foldRange(Ctx &cx, const SourceFile &f, const FnDef *fn, std::size_t b,
          std::size_t e)
{
    if (cx.depth > 24)
        return {0, false};
    ++cx.depth;

    long long sum = 0;
    bool exact = true;
    long long term = -1; // -1: no factor folded yet
    bool termExact = true;

    const auto flushTerm = [&]() {
        if (term < 0)
            term = 0;
        sum += term;
        exact = exact && termExact;
        term = -1;
        termExact = true;
    };

    std::size_t i = b;
    bool poisoned = false;
    while (i < e && i < f.toks.size()) {
        const Token &t = f.toks[i];
        if (t.is("+")) {
            flushTerm();
            ++i;
            continue;
        }
        if (t.is("*") && term >= 0) {
            ++i;
            continue;
        }
        if (t.is("-") || t.is("/") || t.is("%") || t.is("?") ||
            t.is("<<") || t.is("&") || t.is("|") || t.is("^") ||
            t.is(",")) {
            poisoned = true;
            break;
        }
        const Bnd fac = foldFactor(cx, f, fn, i, e);
        if (term < 0) {
            term = fac.lo;
            termExact = fac.exact;
        } else {
            term *= fac.lo;
            termExact = termExact && fac.exact;
        }
    }
    --cx.depth;
    if (poisoned)
        return {0, false};
    flushTerm();
    if (sum < 0)
        sum = 0;
    return {sum, exact};
}

/**
 * Minimum over every initialization/assignment site of
 * @p cls::@p field: in-class initializer, constructor init-list entry,
 * and `recv.field = expr` assignments whose receiver resolves to
 * @p cls. A provably-zero in-class default is excluded while other
 * candidates exist (it is the "not yet charged" sentinel, e.g.
 * `Tick occ = 0;`, not a charge the code ever pays).
 */
Bnd
fieldBound(Ctx &cx, const std::string &cls, const std::string &field)
{
    const std::string key = cls + "::" + field;
    const auto mit = cx.fieldMemo.find(key);
    if (mit != cx.fieldMemo.end())
        return mit->second;
    if (cx.fieldBusy.count(key) != 0)
        return {0, false};
    cx.fieldBusy.insert(key);

    std::vector<Bnd> others;    // ctor-init / assignment candidates
    std::vector<Bnd> inClass;   // in-class initializer candidates

    for (const SourceFile &f : cx.p.files) {
        const Tokens &toks = f.toks;

        // In-class initializer: locate the declaration via the field
        // table (line-matched), fold `= expr ;` or `{ expr }`.
        for (const FieldDecl &fd : f.fields) {
            if (fd.className != cls || fd.name != field)
                continue;
            for (const ClassDef &cd : f.classes) {
                if (cd.name != cls)
                    continue;
                for (std::size_t k = cd.bodyBegin;
                     k + 1 < cd.bodyEnd && k + 1 < toks.size(); ++k) {
                    if (toks[k].line != fd.line || !toks[k].ident() ||
                        toks[k].text != field)
                        continue;
                    if (toks[k + 1].is("=")) {
                        std::size_t end = k + 2;
                        while (end < cd.bodyEnd && !toks[end].is(";"))
                            ++end;
                        inClass.push_back(
                            foldRange(cx, f, nullptr, k + 2, end));
                    } else if (toks[k + 1].is("{")) {
                        const std::size_t close =
                            skipBalanced(toks, k + 1);
                        inClass.push_back(foldRange(cx, f, nullptr,
                                                    k + 2, close - 1));
                    }
                    break;
                }
            }
        }

        for (const FnDef &fn : f.fns) {
            // Constructor init-list: walk back from the body `{` to
            // the `:` that opens the list (reverse paren depth 0).
            if (fn.className == cls && fn.name == cls &&
                fn.bodyBegin > 0) {
                std::size_t start = 0;
                int depth = 0;
                std::size_t q = fn.bodyBegin;
                std::size_t guard = 0;
                while (q-- > 0 && ++guard < 400) {
                    if (toks[q].is(")") || toks[q].is("}"))
                        ++depth;
                    else if (toks[q].is("(") || toks[q].is("{")) {
                        if (depth == 0)
                            break; // hit the parameter list: no list
                        --depth;
                    } else if (depth == 0 && toks[q].is(":")) {
                        start = q + 1;
                        break;
                    }
                }
                for (std::size_t k = start;
                     start != 0 && k + 1 < fn.bodyBegin; ++k) {
                    if (!toks[k].ident() || toks[k].text != field ||
                        (!toks[k + 1].is("(") && !toks[k + 1].is("{")))
                        continue;
                    const std::size_t close =
                        skipBalanced(toks, k + 1);
                    others.push_back(
                        foldRange(cx, f, &fn, k + 2, close - 1));
                    k = close;
                }
            }

            // Assignments `recv.field = expr;` / `field = expr;` in
            // any body, receiver-resolved to cls.
            for (std::size_t k = fn.bodyBegin;
                 k + 2 < fn.bodyEnd && k + 2 < toks.size(); ++k) {
                if (!toks[k].ident() || toks[k].text != field ||
                    !toks[k + 1].is("="))
                    continue;
                bool mine = false;
                if (k > 0 &&
                    (toks[k - 1].is(".") || toks[k - 1].is("->"))) {
                    const std::string rcls =
                        resolveReceiver(cx.p, f, fn, k - 1);
                    mine = rcls == cls;
                } else if (fn.className == cls) {
                    mine = k == 0 || toks[k - 1].is(";") ||
                           toks[k - 1].is("{") || toks[k - 1].is("}");
                }
                if (!mine)
                    continue;
                std::size_t end = k + 2;
                int pd = 0;
                while (end < fn.bodyEnd && end < toks.size()) {
                    if (toks[end].is("(") || toks[end].is("["))
                        ++pd;
                    else if (toks[end].is(")") || toks[end].is("]"))
                        --pd;
                    else if (pd == 0 && toks[end].is(";"))
                        break;
                    ++end;
                }
                others.push_back(foldRange(cx, f, &fn, k + 2, end));
                k = end;
            }
        }
    }

    // Zero-sentinel exclusion (DESIGN.md §12.1): a provably-zero
    // default only wins when nothing else ever sets the field.
    std::vector<Bnd> pool = others;
    for (const Bnd &b : inClass)
        if (!(b.exact && b.lo == 0) || others.empty())
            pool.push_back(b);

    Bnd out{0, false};
    if (!pool.empty()) {
        out = {kInf, true};
        for (const Bnd &b : pool) {
            out.lo = std::min(out.lo, b.lo);
            out.exact = out.exact && b.exact;
        }
    }
    cx.fieldBusy.erase(key);
    cx.fieldMemo[key] = out;
    return out;
}

/** Fold every namespace-scope `constexpr TYPE NAME = expr;`. */
void
scanConsts(Ctx &cx)
{
    for (const SourceFile &f : cx.p.files) {
        const Tokens &toks = f.toks;
        for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
            if (!toks[i].is("constexpr"))
                continue;
            // NAME is the ident right before a `=` with no call parens
            // in between (skips constexpr functions).
            std::size_t eq = i + 1;
            bool fnLike = false;
            while (eq < toks.size() && !toks[eq].is("=") &&
                   !toks[eq].is(";")) {
                if (toks[eq].is("(") || toks[eq].is("{")) {
                    fnLike = true;
                    break;
                }
                ++eq;
            }
            if (fnLike || eq >= toks.size() || !toks[eq].is("=") ||
                !toks[eq - 1].ident())
                continue;
            std::size_t end = eq + 1;
            int pd = 0;
            while (end < toks.size()) {
                if (toks[end].is("(") || toks[end].is("{"))
                    ++pd;
                else if (toks[end].is(")") || toks[end].is("}"))
                    --pd;
                else if (pd == 0 && toks[end].is(";"))
                    break;
                ++end;
            }
            const Bnd b = foldRange(cx, f, nullptr, eq + 1, end);
            const std::string &name = toks[eq - 1].text;
            const auto it = cx.consts.find(name);
            if (it == cx.consts.end() || b.lo < it->second.lo)
                cx.consts[name] = b;
            i = end;
        }
    }
}

/** Result of one body walk. */
struct Walk
{
    std::vector<CallSite> sites;
    std::vector<long long> accBefore;   //!< per sites index
    std::map<int, long long> accAtLine; //!< charge at a line's start
};

bool
isCondKeyword(const std::string &t)
{
    return t == "if" || t == "for" || t == "while" || t == "switch" ||
           t == "else" || t == "case" || t == "catch" || t == "do";
}

/**
 * Walk @p fn's body accumulating the unconditional charge prefix:
 * charges inside conditional regions (nested braces, braceless
 * if/else bodies, `?:` tails) do not count. A charge site is an
 * awaited charge primitive (dataflow.hh) — a call or a brace
 * construction like `Delay{q, ns}` — whose latency argument folds.
 */
Walk
walkFn(Ctx &cx, const SourceFile &f, const FnDef &fn)
{
    Walk w;
    w.sites = callSites(cx.p, f, fn);
    w.accBefore.assign(w.sites.size(), 0);

    std::map<std::size_t, std::size_t> byNameIdx;
    for (std::size_t s = 0; s < w.sites.size(); ++s)
        byNameIdx[w.sites[s].nameIdx] = s;

    const Tokens &toks = f.toks;
    long long acc = 0;
    int brace = 0;
    int paren = 0;
    bool condPending = false;
    bool awaitStmt = false;

    for (std::size_t i = fn.bodyBegin + 1;
         i + 1 < fn.bodyEnd && i < toks.size(); ++i) {
        const Token &t = toks[i];
        w.accAtLine.emplace(t.line, acc);

        if (t.is("{")) {
            ++brace;
            continue;
        }
        if (t.is("}")) {
            if (--brace <= 0) {
                brace = 0;
                condPending = false;
            }
            continue;
        }
        if (t.is("(") || t.is("[")) {
            ++paren;
        } else if (t.is(")") || t.is("]")) {
            --paren;
        } else if (t.is(";")) {
            awaitStmt = false;
            if (brace == 0 && paren <= 0)
                condPending = false;
        } else if (t.ident() && isCondKeyword(t.text)) {
            if (brace == 0)
                condPending = true;
        } else if (t.is("?") && brace == 0 && paren <= 0) {
            condPending = true;
        } else if (t.ident() && t.is("co_await")) {
            awaitStmt = true;
        }

        const auto sit = byNameIdx.find(i);
        if (sit != byNameIdx.end())
            w.accBefore[sit->second] = acc;

        const int lat = t.ident() ? chargeLatencyArg(t.text) : -1;
        if (lat < 0 || !(toks[i + 1].is("(") || toks[i + 1].is("{")))
            continue;
        const std::size_t close = skipBalanced(toks, i + 1);
        const auto args = splitArgs(toks, i + 2, close - 1);
        if (awaitStmt && brace == 0 && !condPending &&
            std::size_t(lat) < args.size())
            acc += foldRange(cx, f, &fn, args[lat].first,
                             args[lat].second)
                       .lo;
        if (toks[i + 1].is("{"))
            i = close - 1; // braces of a construction are not a block
    }
    return w;
}

/** The FnDef whose body owns @p line in @p f, else the first one
 *  whose signature starts within 4 lines below it; null when none. */
const FnDef *
fnAtLine(const SourceFile &f, int line)
{
    const FnDef *best = nullptr;
    for (const FnDef &fn : f.fns) {
        if (fn.bodyBegin >= f.toks.size() || fn.bodyEnd == 0 ||
            fn.bodyEnd > f.toks.size())
            continue;
        const int lo = fn.line;
        const int hi = f.toks[fn.bodyEnd - 1].line;
        if (line >= lo && line <= hi)
            return &fn;
        if (fn.line >= line && fn.line <= line + 4 &&
            (best == nullptr || fn.line < best->line))
            best = &fn;
    }
    return best;
}

/** Root identifier of a simple dotted receiver chain (`peer.notify`,
 *  `a.b->notify`), or "" when the receiver is computed (a call or
 *  subscript in the chain). */
std::string
receiverRootName(const Tokens &toks, std::size_t nameIdx)
{
    std::size_t k = nameIdx;
    std::string root;
    while (k >= 2 && (toks[k - 1].is(".") || toks[k - 1].is("->"))) {
        if (!toks[k - 2].ident())
            return "";
        root = toks[k - 2].text;
        k -= 2;
    }
    return root;
}

/** One call-graph edge: the charge accumulated in the caller before
 *  control can reach the callee along it. */
struct DistEdge
{
    std::string from;
    std::string to;
    long long weight = 0;
    bool schedZero = false; //!< scheduleIn with a provably-zero delay
    std::string file;
    int line = 0;
};

/** One effect the uncharged rules check: a deliver annotation or an
 *  implicit wake of a parameter-rooted waiter. */
struct Effect
{
    bool wake = false;
    std::string fnk;
    std::string file;
    int line = 0;
    long long localAcc = 0; //!< charge in fnk before the effect
    std::string what;
};

/** The charge-weighted call graph the three rules read. */
struct ChargeGraph
{
    std::vector<DistEdge> edges;
    std::vector<Effect> effects;
    /** Minimum charge from any cross-node entry; kInf if unreachable. */
    std::map<std::string, long long> dist;
};

ChargeGraph
chargeGraph(const Project &p)
{
    ChargeGraph g;
    Ctx cx(p);
    scanConsts(cx);

    const auto walkable = [](const SourceFile &f, const FnDef &fn) {
        return layerOf(f.dir) >= 0 && fn.bodyBegin != 0 &&
               fn.bodyEnd > fn.bodyBegin;
    };
    for (const SourceFile &f : p.files)
        for (const FnDef &fn : f.fns)
            if (walkable(f, fn))
                g.dist.emplace(fnKey(fn), kInf);

    // Walk every body once: per-site charge prefixes become edge
    // weights; annotated entries and effects are collected.
    for (const SourceFile &f : p.files) {
        for (const FnDef &fn : f.fns) {
            if (!walkable(f, fn))
                continue;
            const std::string key = fnKey(fn);
            const Walk w = walkFn(cx, f, fn);

            for (std::size_t s = 0; s < w.sites.size(); ++s) {
                const CallSite &cs = w.sites[s];

                // Implicit wake effects: notify on a receiver rooted
                // at a parameter — a waiter this function does not
                // own, i.e. potentially on another node.
                if (cs.callee == "notifyAll" ||
                    cs.callee == "notifyWrite") {
                    const std::string root =
                        receiverRootName(f.toks, cs.nameIdx);
                    for (const Param &pa : fn.params) {
                        if (pa.name != root || root.empty())
                            continue;
                        g.effects.push_back({true, key, f.rel, cs.line,
                                             w.accBefore[s],
                                             root + "." + cs.callee});
                        break;
                    }
                }

                if (g.dist.count(cs.key) == 0)
                    continue;
                if (f.allows(cs.line, "cross-node-exempt"))
                    continue;

                DistEdge e;
                e.from = key;
                e.to = cs.key;
                e.file = f.rel;
                e.line = cs.line;
                e.weight = w.accBefore[s];
                // A call nested in a scheduleIn(delay, ...) argument
                // fires after `delay` more ticks.
                if (cs.argIndexInParent >= 0) {
                    for (std::size_t q = 0; q < w.sites.size(); ++q) {
                        const CallSite &par = w.sites[q];
                        if (par.nameIdx != cs.parentNameIdx)
                            continue;
                        if (par.callee == "scheduleIn") {
                            const auto pargs =
                                splitArgs(f.toks, par.argsBegin,
                                          par.argsEnd);
                            if (!pargs.empty()) {
                                const Bnd d = foldRange(
                                    cx, f, &fn, pargs[0].first,
                                    pargs[0].second);
                                e.weight =
                                    w.accBefore[q] + d.lo;
                                e.schedZero =
                                    d.exact && d.lo == 0;
                                e.line = par.line;
                            }
                        }
                        break;
                    }
                }
                g.edges.push_back(e);
            }

            // Annotations anchored in this function.
            for (const Annotation &a : f.annotations) {
                if (a.rule != "cross-node-entry" &&
                    a.rule != "cross-node-deliver")
                    continue;
                // Above a one-line inline method, "the statement
                // below" is the whole function.
                if (fnAtLine(f, a.line) != &fn)
                    continue;
                if (a.rule == "cross-node-entry") {
                    g.dist[key] = 0;
                    continue;
                }
                long long acc = kInf;
                for (int l = a.line; l <= a.line + 3; ++l) {
                    const auto it = w.accAtLine.find(l);
                    if (it != w.accAtLine.end())
                        acc = std::min(acc, it->second);
                }
                g.effects.push_back({false, key, f.rel, a.line,
                                     acc == kInf ? 0 : acc, key});
            }
        }
    }

    // Forward min-distance from the entries over the charge edges.
    for (bool changed = true; changed;) {
        changed = false;
        for (const DistEdge &e : g.edges) {
            if (g.dist[e.from] >= kInf)
                continue;
            const long long cand = g.dist[e.from] + e.weight;
            if (cand < g.dist[e.to]) {
                g.dist[e.to] = cand;
                changed = true;
            }
        }
    }
    return g;
}

/** Findings for the effects of one kind that an entry reaches with
 *  0 charged simulated time. */
void
reportUncharged(const Project &p, bool wake, std::vector<Finding> &out)
{
    const std::string rule = wake ? "cross-node-wake-uncharged"
                                  : "cross-node-deliver-uncharged";
    const ChargeGraph g = chargeGraph(p);
    for (const Effect &ef : g.effects) {
        if (ef.wake != wake)
            continue;
        const auto dit = g.dist.find(ef.fnk);
        if (dit == g.dist.end() || dit->second >= kInf)
            continue; // not reachable from any entry
        if (dit->second + ef.localAcc > 0)
            continue;
        const SourceFile *f = p.file(ef.file);
        if (f != nullptr && f->allows(ef.line, rule))
            continue;
        out.push_back(
            {rule, ef.file, ef.line,
             (wake ? "wake/" : "deliver/") + ef.fnk + "/" + ef.what,
             (wake ? "wake of a foreign waiter (" + ef.what + ") in "
                   : "cross-node deliver effect in ") +
                 ef.fnk +
                 " is reachable from a cross-node entry with 0 charged "
                 "simulated time"});
    }
}

} // namespace

void
ruleCrossNodeDeliverUncharged(const Project &p, std::vector<Finding> &out)
{
    reportUncharged(p, false, out);
}

void
ruleCrossNodeWakeUncharged(const Project &p, std::vector<Finding> &out)
{
    reportUncharged(p, true, out);
}

void
ruleZeroDelayCycle(const Project &p, std::vector<Finding> &out)
{
    // A provably-zero scheduleIn whose target reaches the scheduling
    // function back over zero-charge edges stalls simulated time.
    const ChargeGraph g = chargeGraph(p);
    std::set<std::string> seen;
    for (const DistEdge &se : g.edges) {
        if (!se.schedZero)
            continue;
        bool cyclic = se.to == se.from;
        std::set<std::string> visited{se.to};
        std::vector<std::string> work{se.to};
        while (!work.empty() && !cyclic) {
            const std::string cur = work.back();
            work.pop_back();
            for (const DistEdge &e : g.edges) {
                if (e.from != cur || e.weight != 0)
                    continue;
                if (e.to == se.from) {
                    cyclic = true;
                    break;
                }
                if (visited.insert(e.to).second)
                    work.push_back(e.to);
            }
        }
        const std::string fp = "cycle/" + se.from + "/" + se.to;
        if (!cyclic || !seen.insert(fp).second)
            continue;
        const SourceFile *f = p.file(se.file);
        if (f != nullptr && f->allows(se.line, "zero-delay-cycle"))
            continue;
        out.push_back({"zero-delay-cycle", se.file, se.line, fp,
                       "zero-delay event cycle: " + se.from +
                           " schedules " + se.to +
                           " with a provably zero delay and " + se.to +
                           " reaches " + se.from +
                           " again without charging simulated time"});
    }
}

} // namespace shrimp::analyze
