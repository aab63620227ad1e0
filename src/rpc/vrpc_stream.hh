/**
 * @file
 * VrpcTransport: the transport under VRPC (paper section 4.2) — a pair
 * of VMMC mappings forming a bidirectional stream between client and
 * server, established at binding time over the Ethernet. Each direction
 * is a cyclic shared queue whose control words carry the cumulative
 * length written (the receiver trusts data only up to that word) —
 * the ByteStream building block.
 */

#ifndef SHRIMP_RPC_VRPC_STREAM_HH
#define SHRIMP_RPC_VRPC_STREAM_HH

#include <memory>

#include "node/ether.hh"
#include "sock/ring.hh"

namespace shrimp::rpc
{

class VrpcTransport
{
  public:
    VrpcTransport(vmmc::Endpoint &ep, std::size_t queue_bytes);

    /** Client side: bind to the server's listener on (node, port). */
    sim::Task<bool> connect(NodeId server, std::uint16_t port);

    /** Server side: complete a binding for one received SYN frame;
     *  @p listen_port is where the reply originates. */
    sim::Task<bool> acceptFrom(const node::EtherFrame &syn,
                               std::uint16_t listen_port);

    sock::ByteStream &stream() { return *stream_; }
    vmmc::Endpoint &endpoint() { return ep_; }

    /** Close: raise FIN and drop the import. */
    sim::Task<> close();

    /** The handshake frame (POD over Ethernet). */
    struct Hello
    {
        std::uint32_t magic;
        std::uint32_t key;
        std::uint16_t replyPort;
        std::uint16_t pad;
    };

    static constexpr std::uint32_t helloMagic = 0x56525043; // "VRPC"

  private:
    std::uint32_t nextKey();

    vmmc::Endpoint &ep_;
    std::size_t queueBytes_;
    std::unique_ptr<sock::ByteStream> stream_;
    static std::uint32_t keyCounter_;
};

} // namespace shrimp::rpc

#endif // SHRIMP_RPC_VRPC_STREAM_HH
