/**
 * @file
 * The near-memory handler stage of a NetDIMM device: a small pool of
 * wimpy in-order handler cores fed by a bounded run queue, serving
 * KV GET/PUT RPCs straight from the DIMM before the frames touch the
 * host RX ring (PsPIN-style handlers, CHoNDA-style DRAM arbitration;
 * DESIGN.md §13).
 *
 * Life of a served frame:
 *
 *   nNIC MAC -> served-op check (line rate) -> run queue -> handler
 *     core -> dispatch cycles -> KV body (kvCycles, bucket probe,
 *     value access; nMC accesses tagged MemSource::Handler) -> reply
 *
 * The reply leaves through the nNIC without ever waking the host. A
 * full run queue (all cores busy) refuses the frame at offer() time —
 * the frame takes the host path and the overflow is counted, so
 * handler offload degrades gracefully instead of dropping load.
 *
 * Reliability (DESIGN.md §14): with a fault domain wired, each
 * invocation rolls hang (core wedges, never completes) and crash
 * (the body traps, frame bounces to the host) faults, and GET value
 * reads roll checksum corruption (NACK + host fallback). A
 * handler-core watchdog mirrors the e1000 TX-hang watchdog: detect a
 * stalled core, drain the run queue to the host, reset the core,
 * hand its frame to the host, book the recovery. Every injected
 * fault is recovered exactly once — crash/corrupt by the host-path
 * fallback, hang by the watchdog reset — so campaign ledgers close.
 * Deadline-aware admission (dropExpiredAtDispatch) sheds queued
 * frames whose rpcDeadline cannot be met.
 *
 * Everything here is deterministic: no free-running randomness, costs
 * from HandlerConfig, addresses from packet fields, fault schedules a
 * pure function of (master seed, domain name) (DESIGN.md §13/§14).
 */

#ifndef NETDIMM_HANDLER_HANDLERSTAGE_HH
#define NETDIMM_HANDLER_HANDLERSTAGE_HH

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "mem/MemoryController.hh"
#include "net/Packet.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"

namespace netdimm
{

/**
 * Address layout of the on-DIMM KV store: a bucket array (one
 * cacheline per bucket) plus a value slab, carved from the top of the
 * local DRAM by HandlerStage::configureKv(). Only addresses are
 * modelled, not contents.
 */
struct KvLayout
{
    Addr bucketBase = 0;
    std::uint64_t buckets = 1;
    Addr valueBase = 0;
    std::uint64_t slots = 1;
    std::uint32_t valueBytes = 256;

    /** Value slot stride, cacheline aligned. */
    std::uint32_t
    valueStride() const
    {
        return (valueBytes + cachelineBytes - 1) &
               ~(cachelineBytes - 1);
    }

    Addr
    bucketAddr(std::uint64_t hash) const
    {
        return bucketBase + (hash % buckets) * cachelineBytes;
    }

    Addr
    valueAddr(std::uint64_t hash) const
    {
        return valueBase + (hash % slots) * valueStride();
    }
};

/** splitmix64 finalizer: deterministic key hashing. */
inline std::uint64_t
handlerHash(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

class HandlerStage : public SimObject
{
  public:
    /** Transmit a reply frame through the owning device's nNIC. */
    using TxFn = std::function<void(const PacketPtr &)>;
    /** Hand a packet to the owning device's host RX path. */
    using HostRxFn = std::function<void(const PacketPtr &)>;

    /**
     * @param local_mem the NetDIMM's local memory controller.
     * @param local_bytes local DRAM capacity; the KV regions are
     *        carved from its top.
     */
    HandlerStage(EventQueue &eq, std::string name,
                 const SystemConfig &cfg, MemTarget &local_mem,
                 std::uint64_t local_bytes);

    void setTx(TxFn tx) { _tx = std::move(tx); }
    void setHostRx(HostRxFn rx) { _hostRx = std::move(rx); }

    /** Serve @p op (Get or Put) on the handler cores from now on. */
    void serve(RpcOp op);
    /** True while at least one op is served. */
    bool serving() const { return _servedOps != 0; }

    /**
     * Size the on-DIMM KV store (bucket array + value slab at the
     * top of local DRAM). Built-in defaults are installed at
     * construction; serving workloads call this to match their
     * footprint.
     */
    void configureKv(std::uint64_t buckets, std::uint64_t slots,
                     std::uint32_t value_bytes);
    const KvLayout &kv() const { return _kv; }

    /**
     * Wire handler fault rolls (hang / crash / KV corruption) to
     * @p domain with probabilities and watchdog timing from @p fc.
     * nullptr disables injection; zero-probability wiring draws from
     * the domain's private stream but never changes behaviour, so
     * zero-rate campaigns stay bit-identical to fault-free runs.
     */
    void setFaultInjection(FaultDomain *domain,
                           const FaultModelConfig *fc);
    /** The wired fault domain; nullptr when none. */
    FaultDomain *faultDomain() { return _faults; }

    /**
     * Offer @p pkt at RX. @return true when the stage consumed it
     * (queued on a handler core); false when its op is not served or
     * the run queue overflowed — the caller delivers to the host.
     */
    bool offer(const PacketPtr &pkt);

    /**
     * Whole-node power loss: queued frames and in-flight invocations
     * vanish (no host fallback — the host died too), every core
     * resets with a generation bump so in-flight completions go
     * stale, and the stage serves no op until the cold-boot path
     * calls serve() again. A core wedged by an *injected* handler
     * fault books its recovery here (the power cycle cleared it);
     * the node-level crash itself is the caller's ledger entry.
     */
    void powerCycle();

    // -- statistics ---------------------------------------------------
    /** Frames accepted into the run queue. */
    std::uint64_t accepted() const { return _accepted.value(); }
    /** Served-op frames refused because the stage was saturated. */
    std::uint64_t overflows() const { return _overflows.value(); }
    /** KV invocations completed (replies plus corrupt NACKs). */
    std::uint64_t invocations() const { return _invocations.value(); }
    /** Reply frames transmitted from the DIMM. */
    std::uint64_t replies() const { return _replies.value(); }
    /** Queued frames shed at dispatch: deadline already (or about to
     *  be) blown, so running the KV body would be wasted work. */
    std::uint64_t shedExpired() const { return _shedExpired.value(); }
    /** Injected core-hang faults (invocation wedged until reset). */
    std::uint64_t hangFaults() const { return _hangFaults.value(); }
    /** Injected crash faults (host-path fallback). */
    std::uint64_t crashFaults() const { return _crashFaults.value(); }
    /** KV checksum-verify failures NACKed to the host path. */
    std::uint64_t corruptNacks() const
    {
        return _corruptNacks.value();
    }
    /** Stalled cores the watchdog reset. */
    std::uint64_t watchdogResets() const
    {
        return _watchdogResets.value();
    }
    /** Queued frames drained to the host by a watchdog reset. */
    std::uint64_t drainedToHost() const
    {
        return _drainedToHost.value();
    }
    /** Frames recovered onto the host path after a handler fault
     *  (crash aborts + corrupt NACKs + watchdog-rescued frames). */
    std::uint64_t faultFallbacks() const
    {
        return _faultFallbacks.value();
    }
    /** Peak run-queue depth observed. */
    std::uint64_t maxQueueDepth() const { return _maxQueue.value(); }
    /** Aggregate core-busy ticks (occupancy, all cores). */
    Tick busyTicks() const { return _busyTicks; }
    /** Mean per-core utilization since tick 0, in [0, 1]. */
    double coreUtilization() const;

    std::uint32_t cores() const { return _cfg.cores; }

  private:
    /** One wimpy in-order handler core. */
    struct Core
    {
        bool busy = false;
        /** Invocation wedged by an injected hang fault. */
        bool hung = false;
        /** Invocation trapped by an injected crash fault. */
        bool crashed = false;
        Tick startTick = 0;
        PacketPtr pkt;
        /** Bumped on watchdog reset; stale completions are ignored. */
        std::uint64_t gen = 0;
    };

    /** Owned copies: the stage outlives no config references. */
    const HandlerConfig _cfg;
    const Tick _pipeLatency;
    const Tick _ctrlLatency;
    const std::uint64_t _localBytes;
    MemTarget &_mem;

    /** Served ops, one bit per RpcOp value. */
    std::uint8_t _servedOps = 0;
    KvLayout _kv;

    TxFn _tx;
    HostRxFn _hostRx;

    std::deque<PacketPtr> _queue;
    std::vector<Core> _cores;
    std::uint32_t _busyCores = 0;
    Tick _busyTicks = 0;

    // -- fault model ---------------------------------------------------
    FaultDomain *_faults = nullptr;
    double _hangProb = 0.0;
    double _crashProb = 0.0;
    double _kvCorruptProb = 0.0;
    std::uint64_t _crashDetectCycles = 0;
    Tick _stallTimeout = 0;
    Tick _watchdogPeriod = 0;
    bool _watchdogArmed = false;

    stats::Scalar _accepted, _overflows, _invocations;
    stats::Scalar _replies, _maxQueue;
    stats::Scalar _shedExpired, _hangFaults, _crashFaults;
    stats::Scalar _corruptNacks, _watchdogResets, _drainedToHost;
    stats::Scalar _faultFallbacks;

    /** Carve the KV regions from the top of local DRAM. */
    void carveRegions();
    void tryDispatch();
    void startInvocation(std::size_t core, PacketPtr pkt);
    /** The KV body: kvCycles, bucket probe, value access. */
    void runKv(std::size_t core, std::uint64_t gen, std::uint64_t h,
               bool put);
    /**
     * One checksum-verify decision on a KV value read. Draws exactly
     * one uniform from the fault domain whenever one is wired; books
     * the injection on a hit so the ledger demands a recovery.
     */
    bool drawKvCorrupt();
    /** @p reply_bytes 0 = checksum verify failed: NACK to the host. */
    void finishInvocation(std::size_t core, std::uint64_t gen,
                          std::uint32_t reply_bytes);
    /** Crash-fault trap: bounce the frame to the host, free core. */
    void abortInvocation(std::size_t core, std::uint64_t gen);
    void releaseCore(std::size_t core);
    /** Arm / run the stall watchdog (active only under injection). */
    void armWatchdog();
    void watchdogTick();
};

} // namespace netdimm

#endif // NETDIMM_HANDLER_HANDLERSTAGE_HH
