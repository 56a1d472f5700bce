/**
 * @file
 * Open-loop KV-serving cells: the tail-latency experiment behind
 * bench/serving_kv, serving_overload and serving_failover.
 *
 * runServing() builds one cell from three roles (RpcServingLoad.cc):
 *
 *  - Client: fires GET/PUT requests with Poisson inter-arrival times
 *    at a configured QPS. It is open-loop, so queueing delay shows up
 *    in the measured tail. It owns retry with backoff, hedging,
 *    failover routing past suspected replicas, the per-request RTT
 *    histogram and the acked-write ledger.
 *  - Server, one per serving node: owns bounded admission, a pool of
 *    two host workers (a hash-bucket and a value access over a
 *    64-page working set, then 6000 cycles of compute), the
 *    replicated store, the replication fan-out of the PUTs it
 *    coordinates and the apply side of re-sync. On NetDimmHandlers
 *    the NetDIMM handler stage answers GET/PUT frames from local
 *    DRAM first, and run-queue overflow falls back to the workers.
 *    A Server sees its own node and the shard map, never a peer.
 *  - Cluster: owns the topology, the consistent-hash ShardMap, the
 *    crash/restart lifecycles and the one-node-down gate, builds
 *    each re-sync plan (it is the only role that sees every store),
 *    runs the interference co-runners and the end-of-run durability
 *    audit, and assembles the ServingResult.
 *
 * ServingParams::cluster (DESIGN.md §15) sizes the tier; its defaults
 * are a single server on a direct link. With N > 1 the nodes sit
 * behind a switch, keys map to R-way replica sets, and a PUT is
 * acknowledged only after every replica installed it.
 *
 * Each request carries a unique rpcKey, so replies are correlated
 * exactly. A cell is deterministic for a given params struct: results
 * merge and print byte-identically at any --jobs. The fixed workload
 * shape (worker pool, working sets, backoff jitter, key space, ring
 * points, re-sync batching and pacing, retry periods, suspicion
 * window) is a set of constants at the top of RpcServingLoad.cc.
 */

#ifndef NETDIMM_WORKLOAD_RPCSERVINGLOAD_HH
#define NETDIMM_WORKLOAD_RPCSERVINGLOAD_HH

#include <cstdint>

#include "harness/LatencyHistogram.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

/** Where request processing happens (the Fig. 4 axis + handlers). */
enum class ServingPlacement : std::uint8_t
{
    Dnic,           ///< discrete PCIe NIC, host processing
    Inic,           ///< integrated NIC, host processing
    NetDimmHost,    ///< NetDIMM RX path, host processing
    NetDimmHandlers ///< NetDIMM with near-memory handler offload
};

const char *placementName(ServingPlacement p);

/**
 * Host-side load-shedding policy when the bounded admission queue is
 * full (ServingParams::admitDepth > 0; depth 0 never sheds).
 */
enum class ShedPolicy : std::uint8_t
{
    Tail,     ///< drop the incoming request
    GetsFirst ///< evict a queued GET before a PUT
};

/**
 * The serving tier (DESIGN.md §15): N serving nodes behind a
 * consistent-hash shard map with R-way replication, a whole-node
 * crash/restart fault model, client failover, and resync-before-
 * rejoin for restarted nodes. The defaults (one node, no replicas,
 * no crashes) are the plain client-server cell every serving golden
 * pins.
 */
struct ClusterServingParams
{
    /** Serving nodes, ids 1..N. One node is "server" on a direct
     *  client link; more sit behind a switch as s1..sN. */
    std::uint32_t nodes = 1;
    /** Replica count R per key. A PUT is acknowledged only after all
     *  R replicas installed it (strict primary-backup). At R=1 the
     *  handler placement also serves PUTs on the wimpy cores; with
     *  backups they stay on the host, which coordinates them. */
    std::uint32_t replication = 1;
    /** Per-node whole-node crash hazard, events per simulated second
     *  (0 = no crashes, no draws). Crash instants come from each
     *  node's own "<node>.crash" FaultDomain. */
    double crashRatePerSec = 0.0;
    /** Power-fail to cold-boot delay. */
    Tick restartDelay = usToTicks(300);
};

/** One serving cell's knobs. */
struct ServingParams
{
    ServingPlacement placement = ServingPlacement::NetDimmHost;
    /** Offered load, requests per second (open loop). */
    double qps = 1e6;
    /** Measured requests (after warmup). */
    std::uint64_t requests = 2000;
    /** Leading requests excluded from the histogram. */
    std::uint64_t warmup = 200;
    /** KV value size; also the GET reply payload. */
    std::uint32_t valueBytes = 256;
    /** Fraction of requests that are GETs (rest are PUTs). */
    double getFraction = 0.9;

    // -- handler placement only ---------------------------------------
    /** nMC arbitration between handler and host/nNIC traffic. */
    MemArbPolicy arb = MemArbPolicy::HostPriority;
    /**
     * Serve no op: the stage is built but takes no frame, so every
     * frame takes the plain host path. Used by the zero-handler
     * golden check (must be byte-identical to NetDimmHost).
     */
    bool emptyMatchTable = false;

    // -- interference probe (NetDIMM placements only) ------------------
    /**
     * Run a dependent-load latency probe on the server against pages
     * inside the NetDIMM window for the middle 60% of the cell, so
     * host reads and handler DRAM traffic contend on the local
     * memory controller under the configured arbitration policy.
     */
    bool probe = false;
    /**
     * Also run an MLC-style bandwidth injector over NetDIMM-window
     * pages for the same middle window: sustained host-class load on
     * the local MC, so the arbitration policy visibly shifts both
     * the injector's achieved bandwidth and the handler tail.
     */
    bool mlc = false;

    // -- request reliability (DESIGN.md §14) ---------------------------
    /**
     * Per-RPC deadline, ticks from first send; 0 disables. With every
     * reliability knob at its default the deadline is pure metadata —
     * goodput is computed from the same reply stream, so zero-shed /
     * zero-retry cells stay byte-identical to deadline-free runs.
     */
    Tick deadline = 0;
    /** Client resends after timeout, at most this many times. 0
     *  disables timeout tracking entirely (no extra events). */
    std::uint32_t maxRetries = 0;
    /** Base client timeout before the first retry; doubles per
     *  attempt (exponential backoff) with +/-10% deterministic
     *  jitter. 0 with maxRetries > 0 defaults to 2x the deadline
     *  budget. */
    Tick retryTimeout = 0;
    /** Hedged requests: race a duplicate after max(hedgeFloor,
     *  running p99) if the reply has not arrived; first reply wins. */
    bool hedge = false;
    Tick hedgeFloor = usToTicks(2);
    /** Host admission-queue bound; 0 is an unbounded FIFO that never
     *  sheds, whatever the policy. */
    std::uint32_t admitDepth = 0;
    /** What to do with the overflow when admitDepth is exceeded. */
    ShedPolicy shed = ShedPolicy::Tail;
    /** Drop requests whose deadline is already (about to be) blown at
     *  dequeue instead of serving them late. On the handler placement
     *  this also arms the stage's dispatch-time shed. */
    bool dropExpiredAtDequeue = false;
    /** Remaining-budget floor below which a dequeued request is shed. */
    Tick dequeueMargin = 0;

    // -- replicated serving tier (DESIGN.md §15) -----------------------
    ClusterServingParams cluster;
};

/** What one serving cell measured. */
struct ServingResult
{
    /** Per-request RTT, in ticks. */
    LatencyHistogram rtt;
    std::uint64_t sent = 0;
    std::uint64_t completed = 0; ///< replies received (incl. warmup)
    /** Requests whose reply never arrived (drops along the path). */
    std::uint64_t lost = 0;
    /** Requests served by handler cores (handler placement only). */
    std::uint64_t handlerServed = 0;
    /** Handler run-queue overflows that fell back to the host. */
    std::uint64_t handlerOverflows = 0;
    /** Requests served by the host worker pool. */
    std::uint64_t hostServed = 0;
    /** Fraction of local-MC bus time consumed by handler beats. */
    double handlerBusFraction = 0.0;
    /** Wall-clock the cell simulated, microseconds. */
    double simulatedUs = 0.0;
    /** Events the cell's queue executed. */
    std::uint64_t events = 0;
    /** Interference probe: mean dependent-load latency, ns. */
    double probeMeanNs = 0.0;
    /** Interference probe: completed accesses. */
    std::uint64_t probeAccesses = 0;
    /** Bandwidth injector: achieved GB/s over its window. */
    double mlcGBps = 0.0;

    // -- request reliability (DESIGN.md §14) ---------------------------
    /** Measured replies that beat their deadline (all of them when no
     *  deadline is set) — the goodput numerator. */
    std::uint64_t goodRpcs = 0;
    /** Client resends after timeout. */
    std::uint64_t retries = 0;
    /** Client timeouts fired on still-unanswered requests. */
    std::uint64_t timeouts = 0;
    /** Requests the client gave up on after maxRetries resends. */
    std::uint64_t abandoned = 0;
    /** Hedged duplicates sent. */
    std::uint64_t hedges = 0;
    /** Incoming requests dropped at the full host admission queue. */
    std::uint64_t shedQueueFull = 0;
    /** Queued GETs evicted to admit a PUT (ShedPolicy::GetsFirst). */
    std::uint64_t shedGets = 0;
    /** Requests shed at host dequeue: deadline already blown. */
    std::uint64_t shedExpired = 0;
    /** Frames shed at handler dispatch: deadline already blown. */
    std::uint64_t handlerShedExpired = 0;
    /** Injected handler faults, by flavour. */
    std::uint64_t handlerHangFaults = 0;
    std::uint64_t handlerCrashFaults = 0;
    std::uint64_t handlerCorruptNacks = 0;
    /** Handler-core watchdog activity. */
    std::uint64_t watchdogResets = 0;
    std::uint64_t drainedToHost = 0;
    /** Frames recovered onto the host path after a handler fault. */
    std::uint64_t faultFallbacks = 0;
    /** Server fault-registry ledger (0/0/closed when faults are
     *  disabled). */
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsRecovered = 0;
    std::uint64_t faultsUnrecovered = 0;
    bool ledgerClosed = true;

    // -- replicated serving / node lifecycle (DESIGN.md §15) -----------
    /** Late duplicate replies (a retried/hedged/failed-over request
     *  answered more than once); dropped by the sequence check after
     *  the first reply was counted. */
    std::uint64_t duplicateReplies = 0;
    /** Distinct KV keys with at least one acknowledged PUT. */
    std::uint64_t ackedPuts = 0;
    /** Acked writes no surviving replica still holds at end of run —
     *  the durability violation count (0 whenever R >= 2 with the
     *  one-crash-at-a-time fault schedule). */
    std::uint64_t lostAckedWrites = 0;
    /** Whole-node crashes injected / cold boots completed. */
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    /** Shard re-sync payload streamed into restarted nodes. */
    std::uint64_t resyncBytes = 0;
    /** Client sends routed away from a key's primary replica. */
    std::uint64_t failoverRedirects = 0;
    /** GET replies older than an already-acked write (0 by protocol:
     *  strict R-ack plus resync-before-rejoin). */
    std::uint64_t staleReads = 0;
    /** Node-downtime fraction: sum of per-node down-until-rejoin time
     *  over (nodes x offered-load window). */
    double deadFraction = 0.0;
};

/** Build a serving cell (client plus cluster.nodes servers) from
 *  @p base and run it. */
ServingResult runServing(const SystemConfig &base,
                         const ServingParams &p);

} // namespace netdimm

#endif // NETDIMM_WORKLOAD_RPCSERVINGLOAD_HH
