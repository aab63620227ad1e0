/**
 * @file
 * charged-time: every figure in the paper is a latency/bandwidth
 * number, so a datapath entry point that moves simulated work without
 * charging simulated time silently deflates results. The rule: a
 * *public* Task-returning member declared in a nic/ or mem/ header
 * must charge CPU or bus time — directly (co_await Delay{...},
 * Cpu::use, Bus::transfer, Xdr chargeOp) or through any callee,
 * computed as a fixpoint over the name-based call graph — or carry an
 * explicit `// analyze: free` annotation explaining why waiting (not
 * working) is all it does.
 */

#include <cstddef>
#include <map>
#include <set>

#include "dataflow.hh"
#include "rules.hh"

namespace shrimp::analyze
{

void
ruleChargedTime(const Project &p, std::vector<Finding> &out)
{
    // Call graph: defined function name -> called names; plus the set
    // of functions whose own body charges.
    std::map<std::string, std::set<std::string>> calls;
    std::set<std::string> charges;

    for (const SourceFile &f : p.files) {
        for (const FnDef &fn : f.fns) {
            auto &callees = calls[fn.name];
            for (std::size_t k = fn.bodyBegin + 1; k < fn.bodyEnd; ++k) {
                const Token &t = f.toks[k];
                if (!t.ident())
                    continue;
                const bool called = k + 1 < fn.bodyEnd &&
                                    (f.toks[k + 1].is("(") ||
                                     f.toks[k + 1].is("{"));
                if (!called)
                    continue;
                if (isChargePrimitive(t.text))
                    charges.insert(fn.name);
                else
                    callees.insert(t.text);
            }
        }
    }

    // Fixpoint: charging propagates caller-ward through call edges.
    for (bool changed = true; changed;) {
        changed = false;
        for (const auto &[name, callees] : calls) {
            if (charges.count(name) != 0)
                continue;
            for (const std::string &c : callees) {
                if (charges.count(c) != 0) {
                    charges.insert(name);
                    changed = true;
                    break;
                }
            }
        }
    }

    // Audit: public Task-returning members declared in nic/mem headers.
    for (const SourceFile &f : p.files) {
        if (!f.isHeader || (f.dir != "nic" && f.dir != "mem"))
            continue;
        for (const MemberDecl &d : f.members) {
            if (!d.returnsTask || !d.isPublic || d.className.empty())
                continue;
            if (charges.count(d.name) != 0)
                continue;
            if (calls.find(d.name) == calls.end())
                continue; // no definition seen: nothing to audit
            if (f.allows(d.line, "charged-time"))
                continue;
            out.push_back(
                {"charged-time", f.rel, d.line,
                 d.className + "::" + d.name,
                 "public datapath entry '" + d.className + "::" + d.name +
                     "()' returns Task but never charges CPU/bus time "
                     "(no Delay/use/transfer reachable through its "
                     "callees); charge the cost or annotate the "
                     "declaration `// analyze: free`"});
        }
    }
}

} // namespace shrimp::analyze
