/**
 * @file
 * bulk_stream: 2 nodes, two one-way streams from node 0 to node 1 that
 * run concurrently in every batch:
 *   - a ttcp-style socket pump: 64 records, sizes stratified over
 *     1–8 KB, received with recvAll and checked byte for byte;
 *   - AU-1copy transfers: 64 copies, sizes stratified over 4–10 KB, into
 *     an automatic-update-bound buffer; the receiver polls the last
 *     word, checks the payload and acknowledges through a reverse AU
 *     binding (stop-and-wait flow control).
 * Snooped AU writes, combining and packet writes wake every polling
 * receiver on node 1 (the broadcast-wakeup storm); the EISA bus is busy
 * and the socket ring is exercised. No RPC, one mesh hop.
 */

#include <cstring>

#include "sock/socket.hh"
#include "vmmc/vmmc.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace shrimp;

constexpr std::size_t kRecords = 64;
constexpr std::size_t kTransfers = 64;
constexpr std::size_t kRecMin = 1024, kRecMax = 8192;
constexpr std::size_t kAuMin = 4096, kAuMax = 10240;
constexpr std::size_t kAuBuf = 12288; // whole pages (bindAu needs them)
constexpr std::uint16_t kPort = 4000;
constexpr std::uint32_t kDataKey = 1, kAckKey = 2;

class BulkStream final : public Workload
{
  public:
    explicit BulkStream(Env &env) : env_(env)
    {
        Rng rng(mix(env.seed, 2));
        records_ = stratifiedSizes(rng, kRecords, kRecMin, kRecMax, 4);
        transfers_ = stratifiedSizes(rng, kTransfers, kAuMin, kAuMax, 4);
    }

    ~BulkStream() override
    {
        src_.reset();
        sink_.reset();
        sys_.reset();
    }

    SetupTimes
    setup() override
    {
        SetupTimes t;
        double t0 = hostNs();
        sys_ = std::make_unique<vmmc::System>();
        double t1 = hostNs();
        auto &sink_ep = sys_->createEndpoint(1);
        auto &src_ep = sys_->createEndpoint(0);
        auSrc_ = &sys_->createEndpoint(0);
        auSink_ = &sys_->createEndpoint(1);
        sink_ = std::make_unique<sock::SocketLib>(sink_ep);
        src_ = std::make_unique<sock::SocketLib>(src_ep);
        sys_->sim().spawn(acceptSide());
        sys_->sim().spawn(connectSide());
        sys_->sim().spawn(bindAu());
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
        sys_->sim().spawn(sockSender(b));
        sys_->sim().spawn(sockReceiver(b));
        sys_->sim().spawn(auSender(b));
        sys_->sim().spawn(auReceiver(b));
        return sys_->sim().runAll();
    }

    std::uint64_t
    msgsPerBatch() const override
    {
        return records_.size() + transfers_.size();
    }

    vmmc::System &sys() override { return *sys_; }

  private:
    Tick now() { return sys_->sim().now(); }

    /** Ids of batch @p b's records come first, then its transfers. */
    std::uint64_t
    opId(std::uint64_t b, std::size_t i) const
    {
        return b * msgsPerBatch() + i + 1;
    }

    sim::Task<>
    acceptSide()
    {
        int ls = co_await sink_->socket();
        env_.check.expect(co_await sink_->listen(ls, kPort) == 0,
                          "sock: listen");
        sinkFd_ = co_await sink_->accept(ls);
        env_.check.expect(sinkFd_ >= 0, "sock: accept");
        sinkBuf_ = sink_->endpoint().proc().alloc(kRecMax + 64);
    }

    sim::Task<>
    connectSide()
    {
        srcFd_ = co_await src_->socket();
        env_.check.expect(co_await src_->connect(srcFd_, 1, kPort) == 0,
                          "sock: connect");
        srcBuf_ = src_->endpoint().proc().alloc(kRecMax + 64);
    }

    sim::Task<>
    bindAu()
    {
        Checker &ck = env_.check;
        node::Process &pa = auSrc_->proc();
        node::Process &pb = auSink_->proc();
        user_ = pa.alloc(kAuBuf);
        au_ = pa.alloc(kAuBuf);
        ackRecv_ = pa.alloc(4096, CacheMode::WriteThrough);
        recv_ = pb.alloc(kAuBuf, CacheMode::WriteThrough);
        ackAu_ = pb.alloc(4096);
        ck.expect(co_await auSink_->exportBuffer(kDataKey, recv_, kAuBuf) ==
                      vmmc::Status::Ok,
                  "au: export data buffer");
        ck.expect(co_await auSrc_->exportBuffer(kAckKey, ackRecv_, 4096) ==
                      vmmc::Status::Ok,
                  "au: export ack buffer");
        auto data = co_await auSrc_->import(1, kDataKey);
        auto ack = co_await auSink_->import(0, kAckKey);
        ck.expect(data.status == vmmc::Status::Ok, "au: import data");
        ck.expect(ack.status == vmmc::Status::Ok, "au: import ack");
        ck.expect(co_await auSrc_->bindAu(au_, kAuBuf, data.handle, 0) ==
                      vmmc::Status::Ok,
                  "au: bind data");
        ck.expect(co_await auSink_->bindAu(ackAu_, 4096, ack.handle, 0) ==
                      vmmc::Status::Ok,
                  "au: bind ack");
    }

    sim::Task<>
    sockSender(std::uint64_t b)
    {
        node::Process &p = src_->endpoint().proc();
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const std::size_t len = records_[i];
            const std::uint64_t id = opId(b, i);
            p.poke(srcBuf_, env_.payload.at(id, len), len);
            std::size_t s = env_.spans.begin("sock.send", id, now());
            long n = co_await src_->send(srcFd_, srcBuf_, len);
            env_.spans.end(s, now());
            env_.check.expect(n == long(len), "sock: send return");
        }
    }

    sim::Task<>
    sockReceiver(std::uint64_t b)
    {
        node::Process &p = sink_->endpoint().proc();
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const std::size_t len = records_[i];
            const std::uint64_t id = opId(b, i);
            std::size_t s = env_.spans.begin("sock.recv", id, now());
            long n = co_await sink_->recvAll(sinkFd_, sinkBuf_, len);
            env_.spans.end(s, now());
            env_.check.expect(n == long(len), "sock: recvAll return");
            env_.check.expect(peekEquals(p, sinkBuf_,
                                         env_.payload.at(id, len), len),
                              "sock: record payload");
        }
    }

    sim::Task<>
    auSender(std::uint64_t b)
    {
        node::Process &p = auSrc_->proc();
        for (std::size_t j = 0; j < transfers_.size(); ++j) {
            const std::size_t len = transfers_[j];
            const std::uint64_t id = opId(b, records_.size() + j);
            const std::uint32_t tag = tagOf(id);
            p.poke(user_, env_.payload.at(id, len), len - 4);
            p.poke32(VAddr(user_ + len - 4), tag);
            std::size_t s = env_.spans.begin("au.copy", id, now());
            co_await p.copy(au_, user_, len);
            env_.spans.end(s, now());
            s = env_.spans.begin("au.ack_wait", id, now());
            co_await p.waitWord32Eq(ackRecv_, tag);
            env_.spans.end(s, now());
        }
    }

    sim::Task<>
    auReceiver(std::uint64_t b)
    {
        node::Process &p = auSink_->proc();
        for (std::size_t j = 0; j < transfers_.size(); ++j) {
            const std::size_t len = transfers_[j];
            const std::uint64_t id = opId(b, records_.size() + j);
            const std::uint32_t tag = tagOf(id);
            std::size_t s = env_.spans.begin("au.wait", id, now());
            co_await p.waitWord32Eq(VAddr(recv_ + len - 4), tag);
            env_.spans.end(s, now());
            env_.check.expect(peekEquals(p, recv_, env_.payload.at(id, len),
                                         len - 4),
                              "au: transfer payload");
            co_await p.store32(ackAu_, tag);
        }
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

    Env &env_;
    std::vector<std::size_t> records_;
    std::vector<std::size_t> transfers_;
    std::unique_ptr<vmmc::System> sys_;
    std::unique_ptr<sock::SocketLib> sink_, src_;
    vmmc::Endpoint *auSrc_ = nullptr, *auSink_ = nullptr;
    int sinkFd_ = -1, srcFd_ = -1;
    VAddr sinkBuf_ = 0, srcBuf_ = 0;
    VAddr user_ = 0, au_ = 0, ackRecv_ = 0, recv_ = 0, ackAu_ = 0;
    std::vector<std::uint8_t> peekBuf_ = std::vector<std::uint8_t>(kAuMax);
};

} // namespace

std::unique_ptr<Workload>
makeBulkStream(Env &env)
{
    return std::make_unique<BulkStream>(env);
}

} // namespace perfbench
