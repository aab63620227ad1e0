#include "sock/socket.hh"

#include <cstring>

#include "base/logging.hh"
#include "base/span.hh"
#include "node/ether.hh"

namespace shrimp::sock
{

namespace
{

constexpr std::uint32_t synMagic = 0x53594e31;    // "SYN1"
constexpr std::uint32_t synAckMagic = 0x53594e32; // "SYN2"

/** Measured software overhead of the send/recv paths beyond the raw
 *  transfer: procedure calls, error checks, and socket data-structure
 *  access (the paper reports ~13 us for a small message, split about
 *  evenly between sender and receiver). */
constexpr Tick sendPathOverhead = 5300;
constexpr Tick recvPathOverhead = 5600;

template <typename T>
std::vector<std::uint8_t>
pack(const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::uint8_t> out(sizeof(T));
    std::memcpy(out.data(), &v, sizeof(T));
    return out;
}

template <typename T>
T
unpack(const std::vector<std::uint8_t> &data)
{
    T v{};
    if (data.size() != sizeof(T))
        panic("malformed socket handshake frame");
    std::memcpy(&v, data.data(), sizeof(T));
    return v;
}

} // namespace

SocketLib::SocketLib(vmmc::Endpoint &ep, SockOptions opt)
    : ep_(ep), opt_(opt),
      keyBase_(0x534b0000u + (std::uint32_t(ep.nodeId()) << 12) +
               (std::uint32_t(ep.pid()) << 8)),
      stats_("node" + std::to_string(ep.nodeId()) + ".p" +
             std::to_string(ep.pid()) + ".sock"),
      track_(trace::track(stats_.name()))
{
}

SocketLib::Sock &
SocketLib::sock(int fd)
{
    if (fd < 0 || std::size_t(fd) >= fds_.size() || !fds_[fd])
        panic("bad socket descriptor");
    return *fds_[fd];
}

sim::Task<int>
SocketLib::socket()
{
    co_await ep_.proc().compute(ep_.proc().config().libCallCost);
    fds_.push_back(std::make_unique<Sock>());
    co_return int(fds_.size() - 1);
}

sim::Task<int>
SocketLib::listen(int fd, std::uint16_t port)
{
    co_await ep_.proc().compute(ep_.proc().config().libCallCost);
    Sock &s = sock(fd);
    if (s.state != State::Fresh)
        co_return -1;
    s.state = State::Listening;
    s.port = port;
    co_return 0;
}

sim::Task<int>
SocketLib::accept(int fd)
{
    node::Process &proc = ep_.proc();
    co_await proc.compute(proc.config().libCallCost);
    Sock &listener = sock(fd);
    if (listener.state != State::Listening)
        co_return -1;

    // Wait for a SYN on the listening "internet" port.
    node::EtherNet &ether = proc.node().ether();
    node::EtherFrame frame =
        co_await ether.rxQueue(ep_.nodeId(), listener.port).recv();
    Syn syn = unpack<Syn>(frame.data);
    if (syn.magic != synMagic)
        panic("socket accept: bad SYN");

    // Build the connected socket: export our ring, import the client's.
    fds_.push_back(std::make_unique<Sock>());
    int cfd = int(fds_.size() - 1);
    Sock &c = *fds_[cfd];
    c.stream = std::make_unique<ByteStream>(ep_, opt_.ringBytes);
    std::uint32_t my_key = nextKey();
    vmmc::Status st = co_await c.stream->exportLocal(
        my_key, vmmc::Perm::onlyNode(frame.src));
    if (st != vmmc::Status::Ok)
        panic("socket accept: export failed");
    st = co_await c.stream->attachRemote(frame.src, syn.key);
    if (st != vmmc::Status::Ok)
        panic("socket accept: attach failed");

    SynAck ack{synAckMagic, my_key, 1};
    ether.send(ep_.nodeId(), listener.port, frame.src, frame.srcPort,
               pack(ack));
    c.state = State::Connected;
    co_return cfd;
}

sim::Task<int>
SocketLib::connect(int fd, NodeId node, std::uint16_t port)
{
    node::Process &proc = ep_.proc();
    co_await proc.compute(proc.config().libCallCost);
    Sock &s = sock(fd);
    if (s.state != State::Fresh)
        co_return -1;

    node::EtherNet &ether = proc.node().ether();
    s.stream = std::make_unique<ByteStream>(ep_, opt_.ringBytes);
    std::uint32_t my_key = nextKey();
    vmmc::Status st = co_await s.stream->exportLocal(
        my_key, vmmc::Perm::onlyNode(node));
    if (st != vmmc::Status::Ok)
        co_return -1;

    std::uint16_t reply_port = ether.allocPort(ep_.nodeId());
    Syn syn{synMagic, my_key, reply_port, 0};
    ether.send(ep_.nodeId(), reply_port, node, port, pack(syn));

    node::EtherFrame frame =
        co_await ether.rxQueue(ep_.nodeId(), reply_port).recv();
    SynAck ack = unpack<SynAck>(frame.data);
    if (ack.magic != synAckMagic || !ack.ok)
        co_return -1;

    st = co_await s.stream->attachRemote(node, ack.key);
    if (st != vmmc::Status::Ok)
        co_return -1;
    s.state = State::Connected;
    co_return 0;
}

// analyze: cross-node-entry — socket send: the library call is
// charged before the stream moves a byte.
sim::Task<long>
SocketLib::send(int fd, VAddr buf, std::size_t len)
{
    node::Process &proc = ep_.proc();
    trace::ScopedSpan span(proc.sim(), track_, "send");
    // Message origin: the staged id is claimed by whichever packet the
    // stream's first store (or deliberate transfer) forms.
    span::stage(span::origin(track_, "sock.send", proc.sim().now()));
    stats_.counter("sends") += 1;
    stats_.counter("sentBytes") += len;
    co_await proc.compute(proc.config().libCallCost);
    Sock &s = sock(fd);
    if (s.state != State::Connected)
        co_return -1;
    co_await proc.compute(sendPathOverhead);
    co_await s.stream->send(buf, len, opt_.proto);
    co_return long(len);
}

sim::Task<long>
SocketLib::recv(int fd, VAddr buf, std::size_t maxlen)
{
    node::Process &proc = ep_.proc();
    trace::ScopedSpan span(proc.sim(), track_, "recv");
    stats_.counter("recvs") += 1;
    co_await proc.compute(proc.config().libCallCost);
    Sock &s = sock(fd);
    if (s.state != State::Connected && s.state != State::ShutDown)
        co_return -1;
    std::size_t n = co_await s.stream->recv(buf, maxlen);
    // Checks and socket-structure bookkeeping on the way out.
    co_await proc.compute(recvPathOverhead);
    co_return long(n);
}

sim::Task<long>
SocketLib::recvAll(int fd, VAddr buf, std::size_t len)
{
    std::size_t done = 0;
    while (done < len) {
        long n = co_await recv(fd, buf + VAddr(done), len - done);
        if (n < 0)
            co_return n;
        if (n == 0)
            co_return long(done); // EOF
        done += std::size_t(n);
    }
    co_return long(done);
}

sim::Task<int>
SocketLib::shutdown(int fd)
{
    co_await ep_.proc().compute(ep_.proc().config().libCallCost);
    Sock &s = sock(fd);
    if (s.state != State::Connected)
        co_return -1;
    co_await s.stream->sendFin();
    s.state = State::ShutDown;
    co_return 0;
}

sim::Task<int>
SocketLib::close(int fd)
{
    co_await ep_.proc().compute(ep_.proc().config().libCallCost);
    Sock &s = sock(fd);
    if (s.state == State::Connected)
        co_await s.stream->sendFin();
    if (s.stream && s.stream->attached())
        co_await s.stream->detachRemote();
    s.state = State::Closed;
    co_return 0;
}

bool
SocketLib::readable(int fd) const
{
    const Sock &s = *fds_.at(fd);
    if (!s.stream)
        return false;
    return s.stream->available() > 0 || s.stream->finReceived();
}

std::size_t
SocketLib::numOpen() const
{
    std::size_t n = 0;
    for (const auto &s : fds_) {
        if (s && s->state != State::Closed)
            ++n;
    }
    return n;
}

} // namespace shrimp::sock
