#include "srpc/srpc.hh"

#include <cstring>

#include "base/logging.hh"
#include "base/span.hh"

namespace shrimp::srpc
{

namespace
{

std::size_t
round4(std::size_t v)
{
    return (v + 3) & ~std::size_t(3);
}

std::uint32_t srpcKeyCounter = 0;

std::uint32_t
nextKey(vmmc::Endpoint &ep)
{
    return 0x53520000u + (std::uint32_t(ep.nodeId()) << 14) +
           (std::uint32_t(ep.pid()) << 10) + (srpcKeyCounter++ & 0x3FF);
}

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
        panic("malformed SRPC handshake frame");
    std::memcpy(&v, data.data(), sizeof(T));
    return v;
}

} // namespace

// ---- Signature / Interface ---------------------------------------------

std::size_t
Signature::argBytes() const
{
    std::size_t n = 0;
    for (const ParamDesc &p : params) {
        if (p.dir != Dir::Out)
            n += round4(p.size);
    }
    return n;
}

std::size_t
Signature::outBytes() const
{
    std::size_t n = 0;
    for (const ParamDesc &p : params) {
        if (p.dir == Dir::Out)
            n += round4(p.size);
    }
    return n;
}

std::uint32_t
Interface::defineProc(std::string name, std::vector<ParamDesc> params)
{
    for (const ParamDesc &p : params) {
        if (p.size == 0)
            fatal("zero-sized RPC parameter");
    }
    sigs_.push_back(Signature{std::move(name), std::move(params)});
    return std::uint32_t(sigs_.size() - 1);
}

const Signature &
Interface::signature(std::uint32_t proc) const
{
    if (proc >= sigs_.size())
        panic("unknown SRPC procedure id");
    return sigs_[proc];
}

std::size_t
Interface::argAreaBytes() const
{
    std::size_t n = 0;
    for (const Signature &s : sigs_)
        n = std::max(n, s.argBytes());
    return n;
}

std::size_t
Interface::outAreaBytes() const
{
    std::size_t n = 0;
    for (const Signature &s : sigs_)
        n = std::max(n, s.outBytes());
    return n;
}

std::size_t
Interface::bufBytes(std::size_t page_bytes) const
{
    std::size_t n = retFlagOff() + 4;
    return (n + page_bytes - 1) / page_bytes * page_bytes;
}

std::size_t
Interface::argOff(std::uint32_t proc, std::size_t i) const
{
    const Signature &s = signature(proc);
    if (i >= s.params.size())
        panic("SRPC parameter index out of range");
    if (s.params[i].dir == Dir::Out)
        panic("argOff of an Out parameter");
    // Arguments are right-justified against the procedure-id word.
    std::size_t off = argAreaBytes() - s.argBytes();
    for (std::size_t k = 0; k < i; ++k) {
        if (s.params[k].dir != Dir::Out)
            off += round4(s.params[k].size);
    }
    return off;
}

std::size_t
Interface::outOff(std::uint32_t proc, std::size_t i) const
{
    const Signature &s = signature(proc);
    if (i >= s.params.size())
        panic("SRPC parameter index out of range");
    if (s.params[i].dir != Dir::Out)
        panic("outOff of a non-Out parameter");
    // Out values are right-justified against the return flag.
    std::size_t off = outAreaOff() + outAreaBytes() - s.outBytes();
    for (std::size_t k = 0; k < i; ++k) {
        if (s.params[k].dir == Dir::Out)
            off += round4(s.params[k].size);
    }
    return off;
}

// ---- client ----------------------------------------------------------

SrpcClient::SrpcClient(vmmc::Endpoint &ep, const Interface &iface)
    : ep_(ep), iface_(iface),
      stats_("node" + std::to_string(ep.nodeId()) + ".p" +
             std::to_string(ep.pid()) + ".srpc"),
      track_(trace::track(stats_.name()))
{
}

sim::Task<bool>
SrpcClient::bind(NodeId server, std::uint16_t port)
{
    node::Process &proc = ep_.proc();
    node::EtherNet &ether = proc.node().ether();
    std::size_t bytes = iface_.bufBytes(proc.config().pageBytes);

    buf_ = proc.alloc(bytes);
    std::uint32_t key = nextKey(ep_);
    vmmc::Status es = co_await ep_.exportBuffer(
        key, buf_, bytes, vmmc::Perm::onlyNode(server));
    if (es != vmmc::Status::Ok)
        co_return false;

    std::uint16_t reply_port = ether.allocPort(ep_.nodeId());
    SrpcHello hello{srpcMagic, key, reply_port, 0};
    ether.send(ep_.nodeId(), reply_port, server, port, pack(hello));
    node::EtherFrame frame =
        co_await ether.rxQueue(ep_.nodeId(), reply_port).recv();
    SrpcHello ack = unpack<SrpcHello>(frame.data);
    if (ack.magic != srpcMagic)
        co_return false;

    auto imp = co_await ep_.import(server, ack.key);
    if (imp.status != vmmc::Status::Ok)
        co_return false;
    importHandle_ = imp.handle;
    // The whole local buffer is bound: every client store propagates to
    // the server's buffer at the same offset.
    vmmc::Status bs = co_await ep_.bindAu(buf_, bytes, importHandle_, 0);
    co_return bs == vmmc::Status::Ok;
}

// analyze: cross-node-entry — specialized RPC: the client stub's
// checks are charged before the argument stores propagate.
sim::Task<>
SrpcClient::call(std::uint32_t proc, std::vector<Param> params)
{
    if (importHandle_ < 0)
        panic("SRPC call before bind");
    node::Process &p = ep_.proc();
    trace::ScopedSpan span(p.sim(), track_, "call");
    stats_.counter("calls") += 1;
    const Signature &sig = iface_.signature(proc);
    if (params.size() != sig.params.size())
        panic("SRPC call with wrong parameter count");

    std::uint32_t seq = ++seq_;

    // Client stub: marshal arguments consecutively, then the procedure
    // id, then the flag — one run of stores, combined by the hardware
    // into a single packet when it fits.
    std::size_t arg_bytes = sig.argBytes();
    std::vector<std::uint8_t> marshal(arg_bytes + 8, 0);
    std::size_t off = 0;
    for (std::size_t i = 0; i < params.size(); ++i) {
        const ParamDesc &d = sig.params[i];
        if (params[i].size != d.size)
            panic("SRPC parameter size mismatch");
        if (d.dir == Dir::Out)
            continue;
        std::memcpy(marshal.data() + off, params[i].data, d.size);
        off += round4(d.size);
    }
    std::memcpy(marshal.data() + arg_bytes, &proc, 4);
    std::memcpy(marshal.data() + arg_bytes + 4, &seq, 4);

    // The specialized stub's software overhead is tiny (paper: under
    // 1 us): a couple of checks and the marshal below.
    co_await p.compute(2 * p.config().cpuOpCost);
    // Call origin: staged just before the marshaled stores, so the
    // combined argument packet claims the id.
    span::stage(span::origin(track_, "srpc.call", p.sim().now()));
    VAddr start = buf_ + VAddr(iface_.argAreaBytes() - arg_bytes);
    co_await p.write(start, marshal.data(), marshal.size());

    // Wait for the server's return flag; OUT/INOUT values have been
    // propagating via automatic update in the meantime (in-order
    // delivery puts them all before the flag).
    co_await p.waitWord32Eq(VAddr(buf_ + iface_.retFlagOff()), seq);

    // Unmarshal results (by reference: just read them out).
    for (std::size_t i = 0; i < params.size(); ++i) {
        const ParamDesc &d = sig.params[i];
        if (d.dir == Dir::In)
            continue;
        std::size_t src = d.dir == Dir::Out ? iface_.outOff(proc, i)
                                            : iface_.argOff(proc, i);
        co_await p.compute(
            p.config().cpuOpCost +
            p.node().cpu().copyTime(d.size, CacheMode::WriteBack));
        p.peek(buf_ + VAddr(src), params[i].data, d.size);
    }
}

// ---- server -------------------------------------------------------------

ServerCall::ServerCall(vmmc::Endpoint &ep, const Interface &iface,
                       std::uint32_t proc, VAddr buf)
    : ep_(ep), iface_(iface), proc_(proc), buf_(buf)
{
}

VAddr
ServerCall::argAddr(std::size_t i) const
{
    return buf_ + VAddr(iface_.argOff(proc_, i));
}

sim::Task<>
ServerCall::getArg(std::size_t i, void *out)
{
    const ParamDesc &d = iface_.signature(proc_).params[i];
    // By reference: no unmarshalling, just the access.
    co_await ep_.proc().compute(ep_.proc().config().cpuOpCost);
    ep_.proc().peek(buf_ + VAddr(iface_.argOff(proc_, i)), out, d.size);
}

sim::Task<>
ServerCall::putArg(std::size_t i, const void *data)
{
    const ParamDesc &d = iface_.signature(proc_).params[i];
    if (d.dir != Dir::InOut)
        panic("putArg on a non-InOut parameter");
    co_await ep_.proc().write(buf_ + VAddr(iface_.argOff(proc_, i)), data,
                              d.size);
}

sim::Task<>
ServerCall::putOut(std::size_t i, const void *data)
{
    const ParamDesc &d = iface_.signature(proc_).params[i];
    if (d.dir != Dir::Out)
        panic("putOut on a non-Out parameter");
    co_await ep_.proc().write(buf_ + VAddr(iface_.outOff(proc_, i)), data,
                              d.size);
}

SrpcServer::SrpcServer(vmmc::Endpoint &ep, const Interface &iface,
                       std::uint16_t port)
    : ep_(ep), iface_(iface), port_(port), procs_(iface.numProcs())
{
}

void
SrpcServer::registerProc(std::uint32_t proc, ProcFn fn)
{
    if (proc >= procs_.size())
        fatal("registerProc: procedure not in the interface");
    procs_[proc] = std::move(fn);
}

void
SrpcServer::start()
{
    if (started_)
        panic("SRPC server started twice");
    started_ = true;
    ep_.proc().sim().spawnDaemon(acceptLoop());
}

sim::Task<>
SrpcServer::acceptLoop()
{
    node::Process &proc = ep_.proc();
    node::EtherNet &ether = proc.node().ether();
    auto &rx = ether.rxQueue(ep_.nodeId(), port_);
    for (;;) {
        node::EtherFrame frame = co_await rx.recv();
        SrpcHello hello = unpack<SrpcHello>(frame.data);
        if (hello.magic != srpcMagic) {
            warn("SRPC server ignored a malformed binding request");
            continue;
        }
        std::size_t bytes = iface_.bufBytes(proc.config().pageBytes);
        auto binding = std::make_shared<Binding>();
        binding->buf = proc.alloc(bytes);
        std::uint32_t key = nextKey(ep_);
        vmmc::Status es = co_await ep_.exportBuffer(
            key, binding->buf, bytes, vmmc::Perm::onlyNode(frame.src));
        if (es != vmmc::Status::Ok) {
            warn("SRPC server could not export a binding buffer");
            continue;
        }
        auto imp = co_await ep_.import(frame.src, hello.key);
        if (imp.status != vmmc::Status::Ok)
            continue;
        binding->importHandle = imp.handle;
        vmmc::Status bs = co_await ep_.bindAu(
            binding->buf, bytes, binding->importHandle, 0);
        if (bs != vmmc::Status::Ok)
            continue;
        SrpcHello ack{srpcMagic, key, 0, 0};
        ether.send(ep_.nodeId(), port_, frame.src, hello.replyPort,
                   pack(ack));
        proc.sim().spawnDaemon(serve(binding));
    }
}

sim::Task<>
SrpcServer::serve(std::shared_ptr<Binding> binding)
{
    node::Process &p = ep_.proc();
    VAddr arg_flag = binding->buf + VAddr(iface_.argFlagOff());
    VAddr ret_flag = binding->buf + VAddr(iface_.retFlagOff());

    for (std::uint32_t seq = 1;; ++seq) {
        co_await p.waitWord32Eq(arg_flag, seq);
        std::uint32_t proc_id =
            p.peek32(binding->buf + VAddr(iface_.procIdOff()));
        if (proc_id >= procs_.size() || !procs_[proc_id])
            panic("SRPC call to an unregistered procedure");
        co_await p.compute(p.config().cpuOpCost); // dispatch
        ServerCall call(ep_, iface_, proc_id, binding->buf);
        co_await procs_[proc_id](call);
        ++calls_;
        co_await p.store32(ret_flag, seq);
    }
}

} // namespace shrimp::srpc
