/**
 * @file
 * rpc_pingpong: 2 nodes, one closed-loop client on node 0. Each batch
 * is a seeded shuffle of three op kinds, 64 of each, every size drawn
 * stratified from 4 B to 1 KB in whole words:
 *   - srpc: SHRIMP RPC call with one INOUT argument; the server checks
 *     the argument in place and overwrites it with the reply pattern;
 *   - rpc:  VRPC (SunRPC-compatible) call, bytes in, bytes out;
 *   - du:   raw VMMC deliberate-update ping-pong, the receiver polling
 *     the message's last word (the fig 3 flag protocol).
 * Per-message overhead dominates: the event loop, CPU poll checks, the
 * DU engine, incoming DMA and the RPC stubs. One mesh hop, few bytes.
 */

#include <array>
#include <cstring>

#include "rpc/client.hh"
#include "rpc/server.hh"
#include "srpc/srpc.hh"
#include "vmmc/vmmc.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace shrimp;

constexpr std::size_t kPerKind = 64;
constexpr std::size_t kMinLen = 4;
constexpr std::size_t kMaxLen = 1024;
constexpr std::uint16_t kSrpcPort = 6000;
constexpr std::uint16_t kVrpcPort = 5000;
constexpr std::uint32_t kProg = 0x400, kVers = 1, kProc = 1;
constexpr std::uint32_t kCliKey = 1, kSrvKey = 2;
constexpr std::size_t kDuBuf = 4096;

enum class Kind
{
    Srpc,
    Vrpc,
    Du,
};

struct Op
{
    Kind kind;
    std::size_t len;
};

sim::Task<>
putBytes(rpc::XdrEncoder &e, const std::uint8_t *p, std::size_t n)
{
    co_await e.putBytes(p, n);
}

sim::Task<>
getAndCheck(rpc::XdrDecoder &d, const std::uint8_t *want, std::size_t n,
            Checker &check, const char *what)
{
    std::vector<std::uint8_t> got = co_await d.getBytes(kMaxLen);
    check.expect(got.size() == n && std::memcmp(got.data(), want, n) == 0,
                 what);
}

class RpcPingpong final : public Workload
{
  public:
    explicit RpcPingpong(Env &env) : env_(env)
    {
        Rng rng(mix(env.seed, 1));
        for (Kind k : {Kind::Srpc, Kind::Vrpc, Kind::Du})
            for (std::size_t len :
                 stratifiedSizes(rng, kPerKind, kMinLen, kMaxLen, 4))
                ops_.push_back({k, len});
        rng.shuffle(ops_);
        for (std::size_t len = kMinLen; len <= kMaxLen; len += 4)
            iface_.defineProc("inout" + std::to_string(len),
                              {{srpc::Dir::InOut, len}});
    }

    ~RpcPingpong() override
    {
        // Libraries before the System whose endpoints they use.
        srpcClient_.reset();
        vrpcClient_.reset();
        srpcServer_.reset();
        vrpcServer_.reset();
        sys_.reset();
    }

    SetupTimes
    setup() override
    {
        SetupTimes t;
        double t0 = hostNs();
        sys_ = std::make_unique<vmmc::System>();
        double t1 = hostNs();
        auto &srv_srpc = sys_->createEndpoint(1);
        auto &srv_vrpc = sys_->createEndpoint(1);
        srvDu_ = &sys_->createEndpoint(1);
        cliRpc_ = &sys_->createEndpoint(0);
        cliDu_ = &sys_->createEndpoint(0);

        srpcServer_ = std::make_unique<srpc::SrpcServer>(srv_srpc, iface_,
                                                         kSrpcPort);
        for (std::uint32_t p = 0; p < iface_.numProcs(); ++p)
            srpcServer_->registerProc(p, [this](srpc::ServerCall &c) {
                return serveSrpc(c);
            });
        srpcSrvProc_ = &srv_srpc.proc();
        vrpcServer_ = std::make_unique<rpc::VrpcServer>(srv_vrpc, kVrpcPort);
        vrpcServer_->registerProc(kProg, kVers, kProc,
                                  [this](rpc::XdrDecoder &d) {
                                      return serveVrpc(d);
                                  });
        srpcClient_ = std::make_unique<srpc::SrpcClient>(*cliRpc_, iface_);
        vrpcClient_ = std::make_unique<rpc::VrpcClient>(*cliRpc_);
        srpcServer_->start();
        vrpcServer_->start();
        sys_->sim().spawn(connect());
        t.events = sys_->sim().runAll();
        t.simEnd = sys_->sim().now();
        double t2 = hostNs();
        t.buildS = (t1 - t0) / 1e9;
        t.connectS = (t2 - t1) / 1e9;
        return t;
    }

    std::uint64_t
    runBatch(std::uint64_t b) override
    {
        sys_->sim().spawn(client(b));
        sys_->sim().spawn(duResponder(b));
        return sys_->sim().runAll();
    }

    std::uint64_t msgsPerBatch() const override { return ops_.size(); }
    vmmc::System &sys() override { return *sys_; }

  private:
    std::uint64_t key(std::uint64_t b, std::size_t i, int dir) const
    {
        return (b * ops_.size() + i) * 2 + std::uint64_t(dir);
    }
    std::uint64_t opId(std::uint64_t b, std::size_t i) const
    {
        return b * ops_.size() + i + 1;
    }
    Tick now() { return sys_->sim().now(); }

    sim::Task<>
    connect()
    {
        node::Process &pc = cliDu_->proc();
        node::Process &ps = srvDu_->proc();
        userC_ = pc.alloc(kDuBuf);
        recvC_ = pc.alloc(kDuBuf, CacheMode::WriteThrough);
        userS_ = ps.alloc(kDuBuf);
        recvS_ = ps.alloc(kDuBuf, CacheMode::WriteThrough);
        Checker &ck = env_.check;
        ck.expect(co_await cliDu_->exportBuffer(kCliKey, recvC_, kDuBuf) ==
                      vmmc::Status::Ok,
                  "du: export client buffer");
        ck.expect(co_await srvDu_->exportBuffer(kSrvKey, recvS_, kDuBuf) ==
                      vmmc::Status::Ok,
                  "du: export server buffer");
        auto ic = co_await cliDu_->import(1, kSrvKey);
        auto is = co_await srvDu_->import(0, kCliKey);
        ck.expect(ic.status == vmmc::Status::Ok, "du: client import");
        ck.expect(is.status == vmmc::Status::Ok, "du: server import");
        hCli_ = ic.handle;
        hSrv_ = is.handle;
        ck.expect(co_await srpcClient_->bind(1, kSrpcPort), "srpc: bind");
        ck.expect(co_await vrpcClient_->connect(1, kVrpcPort, kProg, kVers),
                  "rpc: connect");
    }

    /** The closed-loop client: one op in flight at a time. */
    sim::Task<>
    client(std::uint64_t b)
    {
        Spans &sp = env_.spans;
        Checker &ck = env_.check;
        node::Process &pc = cliDu_->proc();
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            const Op op = ops_[i];
            const std::uint64_t id = opId(b, i);
            const std::uint8_t *req = env_.payload.at(key(b, i, 0), op.len);
            const std::uint8_t *rsp = env_.payload.at(key(b, i, 1), op.len);
            cur_ = {b, i};
            std::size_t os = sp.beginOp("rpc_pingpong.op", id, now());
            if (op.kind == Kind::Srpc) {
                std::memcpy(arg_.data(), req, op.len);
                std::vector<srpc::Param> ps{srpc::inout(arg_.data(), op.len)};
                std::size_t s = sp.begin("srpc.call", id, now());
                co_await srpcClient_->call(std::uint32_t(op.len / 4 - 1),
                                           std::move(ps));
                sp.end(s, now());
                ck.expect(std::memcmp(arg_.data(), rsp, op.len) == 0,
                          "srpc: INOUT reply");
            } else if (op.kind == Kind::Vrpc) {
                std::size_t s = sp.begin("rpc.call", id, now());
                rpc::AcceptStat st = co_await vrpcClient_->call(
                    kProc,
                    [req, len = op.len](rpc::XdrEncoder &e) {
                        return putBytes(e, req, len);
                    },
                    [&ck, rsp, len = op.len](rpc::XdrDecoder &d) {
                        return getAndCheck(d, rsp, len, ck,
                                           "rpc: reply bytes");
                    });
                sp.end(s, now());
                ck.expect(st == rpc::AcceptStat::Success, "rpc: AcceptStat");
            } else {
                const std::uint32_t tag = tagOf(id);
                pc.poke(userC_, req, op.len - 4);
                pc.poke32(VAddr(userC_ + op.len - 4), tag);
                std::size_t s = sp.begin("vmmc.send", id, now());
                vmmc::Status st =
                    co_await cliDu_->send(hCli_, 0, userC_, op.len);
                sp.end(s, now());
                ck.expect(st == vmmc::Status::Ok, "du: client send status");
                s = sp.begin("vmmc.wait", id, now());
                co_await pc.waitWord32Eq(VAddr(recvC_ + op.len - 4), tag);
                sp.end(s, now());
                ck.expect(peekEquals(pc, recvC_, rsp, op.len - 4),
                          "du: reply payload");
            }
            sp.end(os, now());
        }
    }

    /** Node 1's raw-VMMC peer: echoes each DU op with the reply
     *  pattern, in op-list order. */
    sim::Task<>
    duResponder(std::uint64_t b)
    {
        Spans &sp = env_.spans;
        Checker &ck = env_.check;
        node::Process &ps = srvDu_->proc();
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            const Op op = ops_[i];
            if (op.kind != Kind::Du)
                continue;
            const std::uint64_t id = opId(b, i);
            const std::uint32_t tag = tagOf(id);
            std::size_t s = sp.begin("vmmc.wait", id, now());
            co_await ps.waitWord32Eq(VAddr(recvS_ + op.len - 4), tag);
            sp.end(s, now());
            ck.expect(peekEquals(ps, recvS_,
                                 env_.payload.at(key(b, i, 0), op.len),
                                 op.len - 4),
                      "du: request payload");
            ps.poke(userS_, env_.payload.at(key(b, i, 1), op.len),
                    op.len - 4);
            ps.poke32(VAddr(userS_ + op.len - 4), tag);
            s = sp.begin("vmmc.send", id, now());
            vmmc::Status st = co_await srvDu_->send(hSrv_, 0, userS_, op.len);
            sp.end(s, now());
            ck.expect(st == vmmc::Status::Ok, "du: server send status");
        }
    }

    sim::Task<>
    serveSrpc(srpc::ServerCall &c)
    {
        const Op &op = ops_[cur_.i];
        const std::size_t len = (c.proc() + 1) * 4;
        env_.check.expect(op.kind == Kind::Srpc && len == op.len,
                          "srpc: procedure id");
        env_.check.expect(
            peekEquals(*srpcSrvProc_, c.argAddr(0),
                       env_.payload.at(key(cur_.b, cur_.i, 0), len), len),
            "srpc: INOUT argument");
        co_await c.putArg(0, env_.payload.at(key(cur_.b, cur_.i, 1), len));
    }

    sim::Task<rpc::VrpcServer::ServiceResult>
    serveVrpc(rpc::XdrDecoder &d)
    {
        const Op &op = ops_[cur_.i];
        const std::uint8_t *req = env_.payload.at(key(cur_.b, cur_.i, 0),
                                                  op.len);
        const std::uint8_t *rsp = env_.payload.at(key(cur_.b, cur_.i, 1),
                                                  op.len);
        std::vector<std::uint8_t> got = co_await d.getBytes(kMaxLen);
        env_.check.expect(got.size() == op.len &&
                              std::memcmp(got.data(), req, op.len) == 0,
                          "rpc: argument bytes");
        rpc::VrpcServer::ServiceResult r;
        r.results = [rsp, len = op.len](rpc::XdrEncoder &e) {
            return putBytes(e, rsp, len);
        };
        co_return r;
    }

    static std::uint32_t tagOf(std::uint64_t id)
    {
        return Payload::tagBit | std::uint32_t(id & 0x7fffffffu);
    }

    bool
    peekEquals(node::Process &p, VAddr at, const std::uint8_t *want,
               std::size_t n)
    {
        p.debugPeek(at, peekBuf_.data(), n);
        return std::memcmp(peekBuf_.data(), want, n) == 0;
    }

    struct Cursor
    {
        std::uint64_t b = 0;
        std::size_t i = 0;
    };

    Env &env_;
    std::vector<Op> ops_;
    srpc::Interface iface_;
    std::unique_ptr<vmmc::System> sys_;
    vmmc::Endpoint *srvDu_ = nullptr;
    vmmc::Endpoint *cliRpc_ = nullptr;
    vmmc::Endpoint *cliDu_ = nullptr;
    node::Process *srpcSrvProc_ = nullptr;
    std::unique_ptr<srpc::SrpcServer> srpcServer_;
    std::unique_ptr<rpc::VrpcServer> vrpcServer_;
    std::unique_ptr<srpc::SrpcClient> srpcClient_;
    std::unique_ptr<rpc::VrpcClient> vrpcClient_;
    VAddr userC_ = 0, recvC_ = 0, userS_ = 0, recvS_ = 0;
    int hCli_ = -1, hSrv_ = -1;
    Cursor cur_;
    std::array<std::uint8_t, kMaxLen> arg_{};
    std::array<std::uint8_t, kMaxLen> peekBuf_{};
};

} // namespace

std::unique_ptr<Workload>
makeRpcPingpong(Env &env)
{
    return std::make_unique<RpcPingpong>(env);
}

} // namespace perfbench
