/**
 * @file
 * The three perfbench workloads. Each is a closed loop over a seeded op
 * list that the constructor builds before any simulated machine exists;
 * set-up() builds the machine in the published figure configuration
 * (default MachineConfig) and runs connection set-up; runBatch() runs
 * one pass over the op list to completion (the event queue drains
 * between batches, so each batch's events belong to it alone).
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hh"

namespace shrimp::vmmc
{
class System;
}

namespace perfbench
{

/** What every workload shares with the runner. */
struct Env
{
    explicit Env(std::uint64_t s) : seed(s), payload(s) {}

    std::uint64_t seed;
    Payload payload;
    Checker check;
    Spans spans;
};

/** Host-time split of one set-up. */
struct SetupTimes
{
    double buildS = 0;   //!< vmmc::System construction (memory, NICs)
    double connectS = 0; //!< exports/imports, binds, NxSystem::init
    std::uint64_t events = 0;
    Tick simEnd = 0;
    std::uint64_t etherFrames = 0; //!< EtherNet::framesDelivered()
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the System and run set-up to completion. */
    virtual SetupTimes setup() = 0;

    /** Run batch @p b (b >= 0) to completion; @return events. */
    virtual std::uint64_t runBatch(std::uint64_t b) = 0;

    /** Application messages, calls or records per batch. */
    virtual std::uint64_t msgsPerBatch() const = 0;

    virtual shrimp::vmmc::System &sys() = 0;
};

std::unique_ptr<Workload> makeRpcPingpong(Env &env);
std::unique_ptr<Workload> makeBulkStream(Env &env);
std::unique_ptr<Workload> makeNxMesh16(Env &env);

/** Workload by name; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name, Env &env);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
