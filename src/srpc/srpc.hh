/**
 * @file
 * SHRIMP RPC: the specialized (non-compatible) remote procedure call
 * system of paper section 5, designed for the VMMC hardware in the
 * style of Bershad's URPC.
 *
 * Each binding consists of one receive buffer on each side (client and
 * server) with bidirectional import-export mappings and automatic-
 * update bindings between them. The buffer layout is fixed per binding:
 *
 *   [  argument area  ][procId][argFlag][  out area  ][retFlag]
 *
 * Arguments are marshalled consecutively, right-justified against the
 * procedure-id word and the argument flag, so the client-side hardware
 * combines arguments + id + flag into a single packet. The flag is in
 * the same place for every call on the binding.
 *
 * On the server, IN/INOUT parameters are passed to the procedure *by
 * reference* — pointers into the communication buffer. Whatever the
 * procedure writes to its OUT/INOUT parameters propagates back to the
 * client silently through automatic update, overlapped with the
 * computation; finishing a call is just one flag write (which the NIC
 * combines with a just-written adjacent OUT value when it can).
 *
 * The stub generator's role is played by Interface/Signature: the
 * interface definition (parameter directions and sizes) from which both
 * sides derive identical marshalling layouts at compile/setup time.
 */

#ifndef SHRIMP_SRPC_SRPC_HH
#define SHRIMP_SRPC_SRPC_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "node/ether.hh"
#include "vmmc/vmmc.hh"

namespace shrimp::srpc
{

enum class Dir
{
    In,
    Out,
    InOut,
};

struct ParamDesc
{
    Dir dir;
    std::size_t size; //!< fixed size in bytes
};

/** One procedure's marshalling plan. */
struct Signature
{
    std::string name;
    std::vector<ParamDesc> params;

    std::size_t argBytes() const;
    std::size_t outBytes() const;
};

/**
 * Interface: the IDL. Both sides construct the same Interface (in a
 * real deployment the stub generator would emit it from a .x-style
 * file), which fixes the buffer layout of every binding.
 */
class Interface
{
  public:
    /** Add a procedure; @return its procedure id. */
    std::uint32_t defineProc(std::string name,
                             std::vector<ParamDesc> params);

    const Signature &signature(std::uint32_t proc) const;
    std::size_t numProcs() const { return sigs_.size(); }

    // layout (valid once all procedures are defined)
    std::size_t argAreaBytes() const;  //!< A: max over procedures
    std::size_t outAreaBytes() const;  //!< O: max over procedures
    std::size_t procIdOff() const { return argAreaBytes(); }
    std::size_t argFlagOff() const { return argAreaBytes() + 4; }
    std::size_t outAreaOff() const { return argAreaBytes() + 8; }
    std::size_t retFlagOff() const { return outAreaOff() + outAreaBytes(); }
    std::size_t bufBytes(std::size_t page_bytes) const;

    /** Offset of parameter @p i of @p proc in the argument area (In and
     *  InOut parameters; panics for Out). */
    std::size_t argOff(std::uint32_t proc, std::size_t i) const;

    /** Offset of parameter @p i in the out area (Out parameters). */
    std::size_t outOff(std::uint32_t proc, std::size_t i) const;

  private:
    std::vector<Signature> sigs_;
};

/** A call parameter: host storage bound to a direction. */
struct Param
{
    Dir dir;
    void *data;
    std::size_t size;
};

inline Param
in(const void *p, std::size_t n)
{
    return Param{Dir::In, const_cast<void *>(p), n};
}

inline Param
out(void *p, std::size_t n)
{
    return Param{Dir::Out, p, n};
}

inline Param
inout(void *p, std::size_t n)
{
    return Param{Dir::InOut, p, n};
}

class SrpcClient
{
    // analyze: node-owned — bound to one process's endpoint

  public:
    SrpcClient(vmmc::Endpoint &ep, const Interface &iface);

    /** Establish a binding to the server listening on (node, port). */
    sim::Task<bool> bind(NodeId server, std::uint16_t port);

    /**
     * Call procedure @p proc. IN/INOUT parameters are marshalled (with
     * the procedure id and flag) into one consecutive write run;
     * OUT/INOUT values are read back after the return flag.
     */
    sim::Task<> call(std::uint32_t proc, std::vector<Param> params);

    std::uint64_t callsMade() const { return seq_; }

  private:
    vmmc::Endpoint &ep_;
    const Interface &iface_;
    VAddr buf_ = 0; //!< local buffer (server's AU writes land here)
    int importHandle_ = -1;
    std::uint32_t seq_ = 0;
    stats::Group stats_;
    trace::TrackId track_;
};

/** Server-side view of one in-progress call: by-reference access to the
 *  parameters in the communication buffer. */
class ServerCall
{
  public:
    ServerCall(vmmc::Endpoint &ep, const Interface &iface,
               std::uint32_t proc, VAddr buf);

    std::uint32_t proc() const { return proc_; }

    /** Read an In/InOut parameter (by reference; small fixed cost). */
    sim::Task<> getArg(std::size_t i, void *out);

    /** Write an InOut parameter in place; propagates via AU. */
    sim::Task<> putArg(std::size_t i, const void *data);

    /** Write an Out parameter; propagates via AU, overlapped with the
     *  rest of the computation. */
    sim::Task<> putOut(std::size_t i, const void *data);

    /** Simulated address of parameter @p i (true by-reference use). */
    VAddr argAddr(std::size_t i) const;

  private:
    vmmc::Endpoint &ep_;
    const Interface &iface_;
    std::uint32_t proc_;
    VAddr buf_;
};

class SrpcServer
{
    // analyze: node-owned — bound to one process's endpoint

  public:
    SrpcServer(vmmc::Endpoint &ep, const Interface &iface,
               std::uint16_t port);

    using ProcFn = std::function<sim::Task<>(ServerCall &)>;

    /** Attach the implementation of procedure @p proc. */
    void registerProc(std::uint32_t proc, ProcFn fn);

    /** Start accepting bindings (daemon). */
    void start();

    std::uint64_t callsServed() const { return calls_; }

  private:
    struct Binding
    {
        VAddr buf = 0;
        int importHandle = -1;
    };

    sim::Task<> acceptLoop();
    sim::Task<> serve(std::shared_ptr<Binding> binding);

    vmmc::Endpoint &ep_;
    const Interface &iface_;
    std::uint16_t port_;
    std::vector<ProcFn> procs_;
    std::uint64_t calls_ = 0;
    bool started_ = false;
};

/** Binding handshake frame. */
struct SrpcHello
{
    std::uint32_t magic;
    std::uint32_t key;
    std::uint16_t replyPort;
    std::uint16_t pad;
};

constexpr std::uint32_t srpcMagic = 0x53525043; // "SRPC"

} // namespace shrimp::srpc

#endif // SHRIMP_SRPC_SRPC_HH
