/**
 * @file
 * Machine: the whole SHRIMP prototype — the simulator clock, the mesh
 * routing backplane, the Ethernet side channel, and the PC nodes with
 * their network interfaces, all wired together. The default
 * configuration is the paper's 4-node (2x2) system.
 */

#ifndef SHRIMP_NODE_MACHINE_HH
#define SHRIMP_NODE_MACHINE_HH

#include <memory>
#include <ostream>
#include <vector>

#include "base/config.hh"
#include "net/mesh.hh"
#include "node/ether.hh"
#include "node/node.hh"
#include "node/process.hh"
#include "sim/simulator.hh"

namespace shrimp::node
{

class Machine
{
  public:
    explicit Machine(MachineConfig cfg = MachineConfig{});

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    sim::Simulator &sim() { return sim_; }
    const MachineConfig &config() const { return cfg_; }
    net::Mesh &mesh() { return mesh_; }
    EtherNet &ether() { return ether_; }

    int numNodes() const { return int(nodes_.size()); }
    Node &node(NodeId id) { return *nodes_.at(id); }

    /** Convenience: spawn a user process on node @p id. */
    Process &spawnProcess(NodeId id) { return node(id).spawnProcess(); }

    /**
     * Dump machine-wide statistics (per-node NIC and bus counters,
     * mesh totals) in gem5-style "component.stat value" lines.
     */
    void dumpStats(std::ostream &os);

  private:
    MachineConfig cfg_;
    sim::Simulator sim_;
    net::Mesh mesh_;
    EtherNet ether_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

} // namespace shrimp::node

#endif // SHRIMP_NODE_MACHINE_HH
