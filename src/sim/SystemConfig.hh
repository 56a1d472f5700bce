/**
 * @file
 * Central parameter block for the simulated system.
 *
 * Defaults encode Table 1 of the paper (8 cores @ 3.4 GHz, DDR4-2400
 * x 2 channels / 16GB, 40GbE with 100 ns switches, PCIe Gen4 x8 after
 * Neugebauer et al. [59]) plus the NetDIMM-specific constants from
 * Sec. 4 (Micron MT40A512M16-based rank geometry, nCache /
 * nPrefetcher sizing, RowClone timing after Seshadri et al.).
 *
 * Every component takes a const reference to its sub-struct; benches
 * mutate copies of SystemConfig to drive parameter sweeps.
 */

#ifndef NETDIMM_SIM_SYSTEMCONFIG_HH
#define NETDIMM_SIM_SYSTEMCONFIG_HH

#include <cstdint>

#include "sim/Ticks.hh"

namespace netdimm
{

/** Cacheline size assumed throughout the paper (Sec. 4.1 footnote). */
constexpr std::uint32_t cachelineBytes = 64;
/** Page size assumed by the allocator discussion (Sec. 4.2.1). */
constexpr std::uint32_t pageBytes = 4096;

/** CPU core / driver cost model (Table 1). */
struct CpuConfig
{
    std::uint32_t cores = 8;
    double freqGhz = 3.4;

    /** Ticks per core cycle. */
    Tick cyclePeriod() const { return netdimm::cyclePeriod(freqGhz); }

    /** Convert a cycle count into ticks. */
    Tick cycles(std::uint64_t n) const { return n * cyclePeriod(); }

    // -- Driver operation costs, in core cycles. These model the
    // bare-metal (userspace-like) polling drivers of Sec. 5.1; the
    // full kernel stack would add a roughly constant term on top.

    /** Descriptor setup / ring bookkeeping per TX packet. */
    std::uint64_t txDriverCycles = 500;
    /** RX ring bookkeeping + protocol demux per packet. */
    std::uint64_t rxDriverCycles = 600;
    /** SKB (socket buffer) metadata allocation + init. */
    std::uint64_t skbAllocCycles = 250;
    /** One polling-loop iteration (load + compare + branch). */
    std::uint64_t pollIterationCycles = 24;
    /**
     * clwb/clflushopt issue cost per cacheline: a store-pipeline
     * slot; the writeback itself proceeds asynchronously.
     */
    std::uint64_t flushIssueCycles = 4;
};

/** Last-level cache + DDIO model (Table 1: 2MB L2/LLC, 16-way). */
struct CacheConfig
{
    std::uint64_t sizeBytes = 2ull * 1024 * 1024;
    std::uint32_t assoc = 16;
    std::uint32_t lineBytes = cachelineBytes;
    /** LLC hit latency (cycles @ core clock), incl. uncore hop. */
    std::uint64_t hitCycles = 44;
    /** Fraction of ways DDIO may allocate into (Sec. 2.1: ~10%). */
    double ddioFraction = 0.10;
    /**
     * When false, NIC DMA bypasses the LLC entirely and lands in
     * DRAM (pre-DDIO platforms; also how Fig. 7 observes the DMA
     * access pattern at the memory controller).
     */
    bool ddioEnabled = true;
};

/** DDR timing parameters; defaults model DDR4-2400 (Table 1). */
struct DramTiming
{
    /** DRAM clock period. DDR4-2400: 1200 MHz -> 833 ps. */
    Tick tCK = 833;
    /** ACT -> RD/WR. 17 clocks @ DDR4-2400. */
    std::uint32_t tRCD = 17;
    /** CAS latency. */
    std::uint32_t tCL = 17;
    /** PRE -> ACT. */
    std::uint32_t tRP = 17;
    /** Burst length in bus clocks (BL8 on DDR = 4 clocks). */
    std::uint32_t tBURST = 4;
    /** Column-to-column (same bank group approximation). */
    std::uint32_t tCCD = 6;
    /** Command/address bus transfer time (one command slot). */
    std::uint32_t tCMD = 1;

    Tick clocks(std::uint32_t n) const { return Tick(n) * tCK; }
};

/** Physical geometry of a set of DRAM channels. */
struct DramGeometry
{
    std::uint32_t channels = 2;
    std::uint32_t ranksPerChannel = 1;
    /** x8 devices per rank (Sec. 4.2.1 / Fig. 9: 8 devices). */
    std::uint32_t devicesPerRank = 8;
    std::uint32_t banksPerDevice = 16;
    /** Sub-arrays per bank (Fig. 9: 512). */
    std::uint32_t subArraysPerBank = 512;
    /** Rows per sub-array (Fig. 9: 128). */
    std::uint32_t rowsPerSubArray = 128;
    /** Bytes per row per rank (Fig. 9: 1KB rows). */
    std::uint32_t rowBytes = 1024;

    /** Capacity of one rank, in bytes. */
    std::uint64_t
    rankBytes() const
    {
        return std::uint64_t(banksPerDevice) * subArraysPerBank *
               rowsPerSubArray * rowBytes;
    }

    /** Capacity of one channel, in bytes. */
    std::uint64_t
    channelBytes() const
    {
        return rankBytes() * ranksPerChannel;
    }

    /** Total capacity across channels, in bytes. */
    std::uint64_t totalBytes() const { return channelBytes() * channels; }
};

/**
 * How a controller arbitrates the data bus between host-class beats
 * (CPU, DMA, nNIC, clone, prefetch) and handler-class beats issued by
 * the near-memory packet handler stage. One FR-FCFS picker forms a
 * candidate per class and the policy chooses between them; with no
 * handler beat queued every policy picks the host candidate.
 */
enum class MemArbPolicy : std::uint8_t
{
    /** Any ready host beat wins over any ready handler beat. */
    HostPriority,
    /** Strict alternation while both classes have ready beats. */
    Fair,
    /**
     * Handler beats may hold at most handlerBusShare of the data-bus
     * time since tick 0; over budget they are masked until the
     * running share decays back under the cap.
     */
    StaticCap,
};

/** @return a short display name for campaign tables. */
const char *arbPolicyName(MemArbPolicy p);

/** Memory controller queueing model. */
struct MemCtrlConfig
{
    /** Write-queue size the drain watermark is a fraction of. */
    std::uint32_t writeQueueDepth = 64;
    /** Controller pipeline (decode + scheduling), in ticks. */
    Tick frontendLatency = nsToTicks(10);
    /** PHY + board propagation one way, in ticks. */
    Tick backendLatency = nsToTicks(6);
    /** Write queue high watermark triggering draining. */
    double writeDrainFraction = 0.75;
    /** Host vs handler data-bus arbitration (CHoNDA-style). */
    MemArbPolicy handlerArb = MemArbPolicy::HostPriority;
    /** StaticCap: handler share of bus time, clamped to [0.01, 1]. */
    double handlerBusShare = 0.5;
};

/**
 * PCIe link model (Table 1: x8 PCIe Gen4, after [59]).
 *
 * Latency of a transaction = request serialization + propagation (+
 * completion serialization + propagation for non-posted). Propagation
 * includes PHY, data-link and transaction layer traversal on both
 * ends, which dominates; serialization uses effective per-lane
 * bandwidth after 128b/130b encoding.
 */
struct PcieConfig
{
    std::uint32_t lanes = 8;
    /** Per-lane raw rate, GT/s. Gen4: 16. */
    double gtPerSec = 16.0;
    /** Encoding efficiency. 128b/130b. */
    double encoding = 128.0 / 130.0;
    /** TLP header + framing overhead per transaction, bytes. */
    std::uint32_t tlpOverheadBytes = 26;
    /** Maximum TLP payload size, bytes. */
    std::uint32_t maxPayloadBytes = 256;
    /** Maximum read request size, bytes. */
    std::uint32_t maxReadReqBytes = 512;
    /**
     * One-way traversal latency (root complex + switch-less link +
     * endpoint transaction layer), in ticks. Neugebauer et al. [59]
     * measure 200-400ns one-way medians for modern NICs; Gen4
     * pipelines sit at the low end.
     */
    Tick propagation = nsToTicks(150);

    /** Effective payload bandwidth in bytes per tick. */
    double
    bytesPerTick() const
    {
        double gbps = gtPerSec * lanes * encoding; // gigabits/s
        return gbps / 8.0 / double(tickPerNs);     // bytes per tick
    }
};

/** Ethernet + switching fabric model (Table 1: 40GbE, 100ns switch). */
struct EthConfig
{
    double gbps = 40.0;
    /** Preamble + start frame delimiter + FCS + min IFG, bytes. */
    std::uint32_t framingBytes = 24;
    /** Minimum Ethernet frame payload section, bytes. */
    std::uint32_t minFrameBytes = 64;
    /** Port-to-port latency of one switch, in ticks. */
    Tick switchLatency = nsToTicks(100);
    /** Cable propagation per hop, in ticks (same-rack ~ 5m fibre). */
    Tick propagation = nsToTicks(25);
    /** MAC/PHY pipeline at each endpoint, in ticks. */
    Tick macLatency = nsToTicks(25);
    /**
     * Per-port egress queue capacity at a switch, in frames; a frame
     * arriving at a full queue is tail-dropped. 0 = unbounded (the
     * pre-congestion idealized model).
     */
    std::uint32_t switchQueueFrames = 64;
    /**
     * Egress queue depth at or above which enqueued frames are
     * ECN-marked (congestion experienced). 0 disables marking.
     */
    std::uint32_t ecnThresholdFrames = 16;
};

/**
 * Reliable transport parameters (src/transport): go-back-N window,
 * retransmission timer, and the DCQCN-flavored rate controller
 * (multiplicative decrease on ECN echo, fast-recovery / additive /
 * hyper rate increase; Zhu et al., SIGCOMM'15).
 */
struct TransportConfig
{
    /** Maximum payload per data segment, bytes. */
    std::uint32_t segmentBytes = 1460;
    /** Go-back-N window: unacknowledged segments in flight. */
    std::uint32_t window = 32;
    /** Size of an ACK frame on the wire, bytes. */
    std::uint32_t ackBytes = 64;
    /** Initial retransmission timeout. */
    Tick minRto = usToTicks(100);
    /** RTO exponential backoff ceiling. */
    Tick maxRto = usToTicks(3200);
    /** Consecutive RTO expiries before the flow aborts. */
    std::uint32_t maxRetries = 8;
    /** Duplicate cumulative ACKs triggering fast go-back-N. */
    std::uint32_t dupAckThreshold = 3;

    // -- DCQCN-flavored rate control -----------------------------------
    /** Line rate: the pacing ceiling, Gbps. */
    double lineRateGbps = 40.0;
    /** Rate floor the controller never cuts below, Gbps. */
    double minRateGbps = 0.5;
    /** EWMA gain g for the congestion estimate alpha. */
    double alphaGain = 1.0 / 16.0;
    /** Minimum spacing between successive rate cuts. */
    Tick rateCutHoldoff = usToTicks(50);
    /** Period of the rate-increase / alpha-decay timer. */
    Tick rateIncreaseInterval = usToTicks(55);
    /** Fast-recovery rounds (current converges on target). */
    std::uint32_t fastRecoveryRounds = 5;
    /** Additive increase step Rai, Gbps. */
    double additiveIncreaseGbps = 2.0;
    /** Hyper increase step Rhai after prolonged calm, Gbps. */
    double hyperIncreaseGbps = 8.0;
    /** Hyper-increase kicks in after this many increase rounds. */
    std::uint32_t hyperRounds = 10;
};

/** RowClone timing (Sec. 4.1 / Seshadri et al. [61]). */
struct RowCloneConfig
{
    /**
     * Fast Parallel Mode: two back-to-back activations of source and
     * destination rows in the same sub-array; ~90ns per row pair.
     */
    Tick fpmPerRow = nsToTicks(90);
    /**
     * Pipeline Serial Mode: cacheline-granular copies over the DRAM
     * internal bus; per-cacheline cost.
     */
    Tick psmPerLine = nsToTicks(7);
    /** PSM fixed startup (row activations on both banks). */
    Tick psmSetup = nsToTicks(80);
    /**
     * General Cloning Mode: read into the buffer device and write
     * back; behaves like a local DMA; per-cacheline cost.
     */
    Tick gcmPerLine = nsToTicks(12);
    /** GCM fixed startup. */
    Tick gcmSetup = nsToTicks(100);
};

/** NetDIMM buffer-device parameters (Sec. 4.1). */
struct NetDimmConfig
{
    /** nCache capacity. */
    std::uint64_t nCacheBytes = 64 * 1024;
    /** nCache associativity. */
    std::uint32_t nCacheAssoc = 8;
    /** nCache access latency, in ticks (dual-port SRAM). */
    Tick nCacheLatency = nsToTicks(2);
    /** nPrefetcher depth (next-n-line). */
    std::uint32_t prefetchDepth = 4;
    /** nController decode/arbitrate per request, in ticks. */
    Tick controllerLatency = nsToTicks(4);
    /**
     * Asynchronous-protocol overhead per host-side access on top of
     * the DDR5 channel transfer: XRD/RDY/SEND handshake (Sec. 2.2).
     */
    Tick asyncProtocolOverhead = nsToTicks(18);
    /** Local ranks on the NetDIMM (Sec. 4.2.2: two ranks). */
    std::uint32_t localRanks = 2;
    /** Pages pre-allocated per sub-array in allocCache. */
    std::uint32_t allocCachePagesPerSubArray = 2;
    /**
     * Allocate RX SKB pages on the same sub-array as the DMA buffer
     * (enables RowClone FPM). Disable to measure the ablation.
     */
    bool subArrayHint = true;
    RowCloneConfig rowClone{};
};

/**
 * Near-memory packet handler stage (src/handler): a pool of wimpy
 * in-order cores on the buffer device serving KV GET/PUT RPCs
 * (PsPIN-style), fed by a served-op check in the nNIC RX path.
 * Cycle counts are charged at the handler-core clock; DRAM accesses
 * go through the local nMC tagged MemSource::Handler so they
 * arbitrate against concurrent host traffic (MemArbPolicy).
 */
struct HandlerConfig
{
    /** Master switch; when false NetDimmDevice builds no stage. */
    bool enabled = false;
    /** Handler cores in the buffer device. */
    std::uint32_t cores = 2;
    /** Handler-core clock (wimpy RISC cores, not host cores). */
    double freqGhz = 1.2;
    /** Bounded run queue; overflow falls back to host delivery. */
    std::uint32_t runQueueDepth = 16;
    /** Dispatch + schedule cost per accepted packet, in cycles. */
    std::uint64_t dispatchCycles = 40;
    /** KV GET/PUT body (plus bucket + value accesses via nMC). */
    std::uint64_t kvCycles = 120;
    /**
     * Deadline-aware admission at dispatch: a queued frame whose
     * rpcDeadline will expire within dispatchMargin of now is shed
     * (never runs a kernel; the client's retry policy owns it).
     * Default off so deadline-less traffic is untouched.
     */
    bool dropExpiredAtDispatch = false;
    /** Slack subtracted from the deadline at the dispatch check:
     *  roughly one kernel service + reply wire time. */
    Tick dispatchMargin = 0;

    /** Ticks per handler-core cycle. */
    Tick cyclePeriod() const { return netdimm::cyclePeriod(freqGhz); }
    /** Convert a cycle count into ticks. */
    Tick cycles(std::uint64_t n) const { return n * cyclePeriod(); }
};

/** Parameters shared by the NIC hardware models. */
struct NicModelConfig
{
    /** TX/RX descriptor ring capacity. */
    std::uint32_t ringEntries = 256;
    /**
     * Register access latency for an *integrated* NIC: an uncore
     * round trip through an uncached mapping instead of a PCIe
     * traversal.
     */
    Tick onDieRegLatency = nsToTicks(60);
    /** Internal NIC pipeline (parse/checksum/queueing) per frame. */
    Tick pipelineLatency = nsToTicks(15);
    /**
     * Per-transaction cost of the *integrated* NIC's DMA engine: a
     * coherent uncore traversal (request, snoop, response) for each
     * descriptor or payload transaction. A discrete NIC pays PCIe
     * traversals instead.
     */
    Tick dmaEngineOverhead = nsToTicks(100);
};

/**
 * How the driver learns about RX completions (Sec. 2.1): ultra-low
 * latency deployments poll; throughput-oriented ones take interrupts
 * and pay wakeup + context-switch latency per (moderated) event.
 */
enum class NotifyMode
{
    Polling,
    Interrupt,
    /**
     * NAPI-style adaptive polling: after any completion the driver
     * keeps polling for adaptivePollWindow; an arrival inside the
     * window is detected at polling cost, one after it pays a fresh
     * interrupt.
     */
    AdaptivePolling,
};

/** Software stack model shared by all drivers. */
struct SoftwareConfig
{
    NotifyMode notify = NotifyMode::Polling;
    /**
     * Interrupt delivery + handler entry + context switch, charged
     * per RX event in Interrupt mode. Several microseconds on a real
     * server, which is exactly why Sec. 2.1 polls.
     */
    Tick interruptLatency = usToTicks(2.2);
    /**
     * Interrupt moderation window: completions arriving within this
     * window after an interrupt fired are batched into it (latency
     * for them counts from the moderated delivery).
     */
    Tick interruptModeration = usToTicks(4);
    /**
     * Adaptive polling: how long the driver busy-polls after the
     * last completion before re-arming interrupts.
     */
    Tick adaptivePollWindow = usToTicks(50);
    /**
     * Extra per-packet cycles when running the full kernel network
     * stack instead of the bare-metal driver (socket layer, TCP/IP,
     * syscalls). 0 = the paper's bare-metal evaluation mode; Sec. 5.1
     * notes the kernel stack "fades the latency improvements".
     */
    std::uint64_t kernelStackCycles = 0;
    /** Fixed memcpy entry/loop overhead, in ticks. */
    Tick copySetup = nsToTicks(18);
    /**
     * Outstanding cacheline misses a single core sustains during a
     * cache-cold copy (bounded by line-fill buffers); the copy's
     * throughput is missLatency/copyMlp per line, so copies *slow
     * down under memory contention* -- the effect behind Fig. 5.
     */
    std::uint32_t copyMlp = 3;
    /** Load/store loop cost per copied cacheline, in cycles. */
    std::uint64_t perLineCopyCycles = 6;
    /** Page-allocator slow path (no allocCache hit), in cycles. */
    std::uint64_t allocSlowPathCycles = 480;
    /**
     * DMA/application buffer allocation in the conventional copying
     * stack, per packet, in cycles. Zero-copy drivers skip it by
     * reusing application pages; the NetDIMM driver skips it via
     * allocCache (Sec. 4.2.2).
     */
    std::uint64_t dmaBufAllocCycles = 300;
    /** Zero-copy per-packet buffer management / pinning, in cycles. */
    std::uint64_t zcpyMgmtCycles = 150;
};

/**
 * Fault model (src/sim/Fault.hh): per-layer injection probabilities
 * and the driver watchdog that recovers from device-level faults.
 * All probabilities are per *opportunity* (per cacheline beat for
 * ECC, per TX kick for device faults); schedules derive from
 * SystemConfig::seed via named FaultDomains. Link faults are wired
 * separately, per EthLink, through a FaultInjector.
 */
struct FaultModelConfig
{
    /** Master switch: when false no fault domains are wired at all. */
    bool enabled = false;

    // -- memory faults (per cacheline beat at a controller) ------------
    /** Correctable ECC error: fixed in line, costs scrub latency. */
    double eccCorrectableProb = 0.0;
    /** Uncorrectable ECC error: the line is poisoned. */
    double eccUncorrectableProb = 0.0;
    /** In-line correction/scrub delay added to a correctable beat. */
    Tick eccScrubLatency = nsToTicks(250);
    /** Probability a RowClone copy aborts (falls back to CopyEngine). */
    double rowCloneFailProb = 0.0;

    // -- device faults (per TX kick at a NIC / NetDIMM device) ---------
    /** Device wedges: stops consuming descriptors until reset. */
    double deviceHangProb = 0.0;
    /** DMA engine drops one transaction (descriptor completes, no
     *  frame reaches the wire). */
    double dmaDropProb = 0.0;

    // -- driver watchdog -----------------------------------------------
    /** Ring-stall age that declares a TX hang (e1000 uses ~2s wall
     *  clock; scaled to simulated microseconds here). */
    Tick txHangTimeout = usToTicks(150);
    /** Watchdog check period while TX work is outstanding. */
    Tick watchdogPeriod = usToTicks(50);

    // -- handler faults (per kernel invocation / per KV GET read) ------
    /** Core wedges mid-dispatch: the invocation never completes until
     *  the handler-core watchdog resets the core. */
    double handlerHangProb = 0.0;
    /** Kernel aborts after crashDetect cycles; the frame falls back
     *  to the host RX path (host-path recovery). */
    double handlerCrashProb = 0.0;
    /** KV value read fails its checksum verify: the kernel NACKs and
     *  the frame falls back to the host path, which serves it from
     *  the authoritative host store. */
    double kvCorruptProb = 0.0;
    /** Cycles until a crashing kernel traps (charged at the handler
     *  clock before the host fallback). */
    std::uint64_t handlerCrashDetectCycles = 200;
    /** Busy-core age that declares a handler-core stall. Must exceed
     *  the worst-case healthy invocation (memory-stall inclusive). */
    Tick handlerStallTimeout = usToTicks(50);
    /** Handler watchdog check period while any core is busy. */
    Tick handlerWatchdogPeriod = usToTicks(20);
};

/** Which NIC architecture a node deploys (Fig. 1). */
enum class NicKind
{
    Discrete,       ///< dNIC: PCIe-attached
    DiscreteZeroCopy, ///< dNIC.zcpy
    Integrated,     ///< iNIC: on-die
    IntegratedZeroCopy, ///< iNIC.zcpy
    NetDimm,        ///< the paper's contribution
};

/** @return a short display name, matching the paper's figures. */
const char *nicKindName(NicKind kind);

/** Top-level configuration of one simulated node. */
struct SystemConfig
{
    CpuConfig cpu{};
    CacheConfig llc{};
    DramTiming dram{};
    DramGeometry hostMem{};
    MemCtrlConfig memCtrl{};
    PcieConfig pcie{};
    EthConfig eth{};
    TransportConfig transport{};
    NetDimmConfig netdimm{};
    HandlerConfig handler{};
    NicModelConfig nicModel{};
    SoftwareConfig sw{};
    NicKind nic = NicKind::Discrete;
    /** Fault injection + recovery model. */
    FaultModelConfig faults{};
    /** RNG seed for this node's stochastic components; also the
     *  master seed every FaultDomain schedule derives from. */
    std::uint64_t seed = 1;
};

} // namespace netdimm

#endif // NETDIMM_SIM_SYSTEMCONFIG_HH
