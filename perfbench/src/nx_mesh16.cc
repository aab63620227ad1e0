/**
 * @file
 * nx_mesh16: 16 NX ranks on a 4x4 mesh. A batch is one round: every
 * rank csends one message to each of its 15 peers in a seeded order
 * (240 sizes per round, stratified over 64 B–4 KB and assigned to the
 * (source, destination) pairs by a seeded shuffle), then crecvs one
 * message from each peer in another seeded order, checking the byte
 * count, the source and the payload, then gsyncs. Messages above NX's
 * 1 KB threshold take the scout (zero-copy) protocol. The mesh/router
 * link ledger and the NX credit/scout protocol do most of the work and
 * the event queue holds many concurrent tasks. No RPC, no sockets.
 */

#include <array>
#include <cstring>

#include "nx/nx.hh"
#include "vmmc/vmmc.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace shrimp;

constexpr int kRanks = 16;
constexpr std::size_t kMinLen = 64, kMaxLen = 4096;
constexpr long kTypeBase = 100;

class NxMesh16 final : public Workload
{
  public:
    explicit NxMesh16(Env &env) : env_(env)
    {
        Rng rng(mix(env.seed, 3));
        std::vector<std::size_t> sizes = stratifiedSizes(
            rng, kRanks * (kRanks - 1), kMinLen, kMaxLen, 4);
        std::size_t k = 0;
        for (int r = 0; r < kRanks; ++r) {
            for (int p = 0; p < kRanks; ++p)
                len_[r][p] = p == r ? 0 : sizes[k++];
            for (int p = 0; p < kRanks; ++p)
                if (p != r) {
                    sendOrder_[r].push_back(p);
                    recvOrder_[r].push_back(p);
                }
            rng.shuffle(sendOrder_[r]);
            rng.shuffle(recvOrder_[r]);
        }
    }

    ~NxMesh16() override
    {
        nx_.reset();
        sys_.reset();
    }

    SetupTimes
    setup() override
    {
        SetupTimes t;
        MachineConfig cfg;
        cfg.meshWidth = 4;
        cfg.meshHeight = 4;
        double t0 = hostNs();
        sys_ = std::make_unique<vmmc::System>(cfg);
        double t1 = hostNs();
        nx_ = std::make_unique<nx::NxSystem>(*sys_, kRanks);
        sys_->sim().spawn(nx_->init());
        t.events = sys_->sim().runAll();
        t.simEnd = sys_->sim().now();
        for (int r = 0; r < kRanks; ++r) {
            auto &proc = nx_->proc(r).endpoint().proc();
            sbuf_[r] = proc.alloc(kMaxLen);
            rbuf_[r] = proc.alloc(kMaxLen);
        }
        double t2 = hostNs();
        t.buildS = (t1 - t0) / 1e9;
        t.connectS = (t2 - t1) / 1e9;
        return t;
    }

    std::uint64_t
    runBatch(std::uint64_t b) override
    {
        for (int r = 0; r < kRanks; ++r)
            sys_->sim().spawn(rank(b, r));
        return sys_->sim().runAll();
    }

    std::uint64_t
    msgsPerBatch() const override
    {
        return std::uint64_t(kRanks) * (kRanks - 1);
    }

    vmmc::System &sys() override { return *sys_; }

  private:
    Tick now() { return sys_->sim().now(); }

    /** Id of batch @p b's message from @p src to @p dst. */
    std::uint64_t
    msgId(std::uint64_t b, int src, int dst) const
    {
        return (b * kRanks + std::uint64_t(src)) * kRanks +
               std::uint64_t(dst) + 1;
    }

    sim::Task<>
    rank(std::uint64_t b, int r)
    {
        nx::NxProc &p = nx_->proc(r);
        node::Process &proc = p.endpoint().proc();
        Spans &sp = env_.spans;
        Checker &ck = env_.check;
        for (int dst : sendOrder_[r]) {
            const std::size_t len = len_[r][dst];
            const std::uint64_t id = msgId(b, r, dst);
            proc.poke(sbuf_[r], env_.payload.at(id, len), len);
            std::size_t s = sp.begin("nx.csend", id, now());
            co_await p.csend(kTypeBase + r, sbuf_[r], len, dst);
            sp.end(s, now());
        }
        for (int src : recvOrder_[r]) {
            const std::size_t len = len_[src][r];
            const std::uint64_t id = msgId(b, src, r);
            std::size_t s = sp.begin("nx.crecv", id, now());
            std::size_t n = co_await p.crecv(kTypeBase + src, rbuf_[r],
                                             kMaxLen);
            sp.end(s, now());
            ck.expect(n == len && p.infocount() == len &&
                          p.infonode() == src,
                      "nx: crecv count/source");
            proc.debugPeek(rbuf_[r], peekBuf_.data(), len);
            ck.expect(std::memcmp(peekBuf_.data(), env_.payload.at(id, len), len) ==
                          0,
                      "nx: payload");
        }
        std::size_t s = sp.begin("nx.gsync", msgId(b, r, r), now());
        co_await p.gsync();
        sp.end(s, now());
    }

    Env &env_;
    std::size_t len_[kRanks][kRanks] = {};
    std::vector<int> sendOrder_[kRanks];
    std::vector<int> recvOrder_[kRanks];
    std::unique_ptr<vmmc::System> sys_;
    std::unique_ptr<nx::NxSystem> nx_;
    VAddr sbuf_[kRanks] = {};
    VAddr rbuf_[kRanks] = {};
    std::array<std::uint8_t, kMaxLen> peekBuf_{};
};

} // namespace

std::unique_ptr<Workload>
makeNxMesh16(Env &env)
{
    return std::make_unique<NxMesh16>(env);
}

} // namespace perfbench
