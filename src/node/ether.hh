/**
 * @file
 * EtherNet: the commodity Ethernet that connects the PC nodes besides
 * the fast backplane (paper section 3.1). It carries diagnostics and
 * low-priority control traffic: the SHRIMP daemons' import/export
 * negotiation and the socket library's connection establishment. It is
 * slow (milliseconds) and never on the data critical path.
 *
 * Frames are addressed to a (node, port) pair; each pair has a FIFO
 * receive queue created on demand.
 */

#ifndef SHRIMP_NODE_ETHER_HH
#define SHRIMP_NODE_ETHER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "base/config.hh"
#include "sim/bus.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"

namespace shrimp::node
{

struct EtherFrame
{
    NodeId src = invalidNode;
    std::uint16_t srcPort = 0;
    std::vector<std::uint8_t> data;
};

class EtherNet
{
  public:
    /** Port reserved for the SHRIMP daemons. */
    static constexpr std::uint16_t daemonPort = 1;

    EtherNet(sim::Simulator &sim, const MachineConfig &cfg, int num_nodes);

    /** Transmit @p data to (@p to, @p port); delivery is asynchronous
     *  but ordered (one shared segment). */
    void send(NodeId from, std::uint16_t from_port, NodeId to,
              std::uint16_t port, std::vector<std::uint8_t> data);

    /** The receive queue for (node, port); created on demand. */
    sim::Channel<EtherFrame> &rxQueue(NodeId node, std::uint16_t port);

    /** Allocate a fresh ephemeral port number for @p node. */
    std::uint16_t allocPort(NodeId node);

    std::uint64_t framesDelivered() const { return delivered_; }

  private:
    sim::Task<> deliver(NodeId to, std::uint16_t port, EtherFrame frame);

    sim::Simulator &sim_;
    const MachineConfig &cfg_;
    int numNodes_;
    sim::Bus segment_;
    std::map<std::uint64_t, std::unique_ptr<sim::Channel<EtherFrame>>> rx_;
    std::vector<std::uint16_t> nextPort_;
    std::uint64_t delivered_ = 0;
};

} // namespace shrimp::node

#endif // SHRIMP_NODE_ETHER_HH
