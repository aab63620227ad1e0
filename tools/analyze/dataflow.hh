/**
 * @file
 * Interprocedural dataflow for shrimp_analyze: fills
 * Project::summaries with per-function facts propagated to a fixpoint
 * over the receiver-resolved call graph (callgraph.hh).
 *
 * Per function (keyed "Class::name" / bare "name"):
 *
 *   suspends          body (or any resolved callee) reaches co_await
 *   charges           body (or any callee) reaches a charge primitive
 *   acquires          lock identities reachable from the body
 *   returnsTaint      a return statement carries a host-nondeterminism
 *                     source, directly or via a tainted callee
 *   consumesTaskParam Task/Task-container parameters the function
 *                     actually consumes (awaits, drains, forwards to a
 *                     consumer); calls the index cannot resolve are
 *                     treated as consuming, so "not consumed" is a
 *                     positive proof the Task goes nowhere
 *   paramToSink       parameters that flow into event scheduling
 *                     (schedule/scheduleIn/scheduleAt/Delay), directly
 *                     or transitively
 *
 * Lock identities name the owning scope, not the expression: a field
 * resolves to "Class::field" whichever receiver chain reaches it, a
 * function-local to "Fn/name". lockOps() is also used directly by the
 * deadlock rule for intra-body ordering.
 */

#ifndef SHRIMP_TOOLS_ANALYZE_DATAFLOW_HH
#define SHRIMP_TOOLS_ANALYZE_DATAFLOW_HH

#include "model.hh"

namespace shrimp::analyze
{

/** One `<lock>.acquire()` / `<lock>.release()` site in a body. */
struct LockOp
{
    bool isAcquire = false;
    std::string id; //!< resolved identity ("Bus::lock_", "fn/sem")
    int line = 0;
    std::size_t tokIdx = 0; //!< token index of the acquire/release ident
};

/** All lock operations in @p fn, in body order. */
std::vector<LockOp> lockOps(const Project &p, const SourceFile &f,
                            const FnDef &fn);

/** Compute Project::summaries (seeds + fixpoint). Requires parsed
 *  files, extractTypes() and buildTypeIndex() to have run. */
void buildSummaries(Project &p);

/** Is @p name a host-nondeterminism source (wall clock, PRNG)? */
bool isNondetSource(const std::string &name);

/** Is @p name an event-scheduling sink (schedule/scheduleIn/
 *  scheduleAt/Delay)? */
bool isScheduleSink(const std::string &name);

/** Is @p name a primitive that charges simulated time when called or
 *  awaited (Delay, Cpu::use, Bus::transfer, Xdr::chargeOp, compute,
 *  copy)? The one list the summaries, charged-time and the cross-node
 *  rules share. */
bool isChargePrimitive(const std::string &name);

/** Index of charge primitive @p name's latency argument in ticks
 *  (Delay{q, ns}, use(ns), transfer(bytes, ns), compute(ns)); -1 when
 *  @p name is not a charge primitive or has no such argument. */
int chargeLatencyArg(const std::string &name);

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_DATAFLOW_HH
