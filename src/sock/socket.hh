/**
 * @file
 * SocketLib: the SHRIMP stream-sockets compatibility library (paper
 * section 4.3), implemented entirely at user level on VMMC.
 *
 * Connection establishment uses a regular internet-domain socket on the
 * Ethernet to exchange the data needed to set up the two VMMC mappings
 * (one per direction); the Ethernet connection stays open to detect a
 * broken peer. Data then flows through circular buffers (ByteStream),
 * two per connection.
 *
 * Three data protocols are provided, as in the paper: two-copy DU (the
 * sender-side copy dodges alignment restrictions), one-copy DU (direct
 * from user memory when alignment allows), and two-copy AU (the sender
 * copy acts as the send). A zero-copy or one-copy-AU protocol would
 * require exporting user pages to an untrusted peer, which sockets
 * semantics forbid.
 */

#ifndef SHRIMP_SOCK_SOCKET_HH
#define SHRIMP_SOCK_SOCKET_HH

#include <deque>
#include <memory>
#include <vector>

#include "base/stats.hh"
#include "base/trace.hh"
#include "sock/ring.hh"

namespace shrimp::sock
{

struct SockOptions
{
    std::size_t ringBytes = 8 * 1024;
    StreamProto proto = StreamProto::AuTwoCopy;
};

class SocketLib
{
    // analyze: node-owned — one per process, on its node

  public:
    explicit SocketLib(vmmc::Endpoint &ep, SockOptions opt = SockOptions{});

    vmmc::Endpoint &endpoint() { return ep_; }
    const SockOptions &options() const { return opt_; }

    /** Create a stream socket. @return descriptor. */
    sim::Task<int> socket();

    /** Bind + listen on @p port (an Ethernet "internet" port). */
    sim::Task<int> listen(int fd, std::uint16_t port);

    /** Accept one connection; blocks. @return connected descriptor. */
    sim::Task<int> accept(int fd);

    /** Connect to (@p node, @p port); blocks. @return 0 or -1. */
    sim::Task<int> connect(int fd, NodeId node, std::uint16_t port);

    /**
     * Stream send: blocks until all @p len bytes are queued toward the
     * peer (sockets may buffer). @return bytes sent or -1.
     */
    sim::Task<long> send(int fd, VAddr buf, std::size_t len);

    /**
     * Stream receive: blocks until at least one byte (or EOF).
     * @return bytes received; 0 at orderly shutdown; -1 on bad fd.
     */
    sim::Task<long> recv(int fd, VAddr buf, std::size_t maxlen);

    /** Receive exactly @p len bytes (convenience; not BSD). */
    sim::Task<long> recvAll(int fd, VAddr buf, std::size_t len);

    /** Half-close: no more sends; peer's recv drains then returns 0. */
    sim::Task<int> shutdown(int fd);

    /** Close the descriptor (sends FIN if still open). */
    sim::Task<int> close(int fd);

    /** select()-style readability test. */
    bool readable(int fd) const;

    /** Per-send protocol override (Figure 7's curves). */
    void setProto(StreamProto p) { opt_.proto = p; }

    std::size_t numOpen() const;

  private:
    enum class State
    {
        Fresh,
        Listening,
        Connected,
        ShutDown,
        Closed,
    };

    struct Sock
    {
        State state = State::Fresh;
        std::uint16_t port = 0; //!< listen port
        std::unique_ptr<ByteStream> stream;
    };

    /** Wire handshake messages (POD over the Ethernet). */
    struct Syn
    {
        std::uint32_t magic;
        std::uint32_t key;       //!< client's exported region key
        std::uint16_t replyPort; //!< client's ephemeral Ethernet port
        std::uint16_t pad;
    };

    struct SynAck
    {
        std::uint32_t magic;
        std::uint32_t key; //!< server's exported region key
        std::uint32_t ok;
    };

    Sock &sock(int fd);
    std::uint32_t nextKey() { return keyBase_ + keyCount_++; }

    vmmc::Endpoint &ep_;
    SockOptions opt_;
    std::vector<std::unique_ptr<Sock>> fds_;
    std::uint32_t keyBase_;
    std::uint32_t keyCount_ = 0;
    stats::Group stats_;
    trace::TrackId track_;
};

} // namespace shrimp::sock

#endif // SHRIMP_SOCK_SOCKET_HH
