/**
 * @file
 * Open-loop KV-serving load generator: the tail-latency experiment
 * behind bench/serving_kv.
 *
 * A client node fires GET/PUT requests at a server node with Poisson
 * (exponential inter-arrival) timing at a configured QPS — open-loop,
 * so arrivals never wait for completions and queueing delay shows up
 * in the measured tail instead of being absorbed by the generator.
 *
 * The server side depends on placement:
 *
 *  - Dnic / Inic / NetDimmHost: requests traverse the full RX path
 *    into host memory, then a pool of two application workers
 *    services each request (hash-bucket read + value read/write via
 *    cpuAccess over a 64-page working set, plus 6000 cycles of
 *    compute) and transmits the reply through the normal TX path.
 *  - NetDimmHandlers: the NetDIMM handler stage intercepts matched
 *    GET/PUT frames in the nNIC parser and serves them from local
 *    DRAM on the wimpy handler cores; run-queue overflow falls back
 *    to the same host worker pool.
 *
 * Every request carries a unique rpcKey, so the client correlates
 * replies exactly and records per-request RTT in a LatencyHistogram
 * (ticks). The whole cell is deterministic for a given params struct:
 * results merge and print byte-identically at any --jobs.
 *
 * Cluster mode (ServingParams::cluster, DESIGN.md §15) generalizes
 * the cell to N serving nodes behind a switch: keys map to R-way
 * replica sets on a consistent-hash ring, PUTs are acknowledged only
 * after every replica installed them, whole-node crash/restart
 * faults wipe a node's volatile state, clients fail over past dead
 * primaries via their request timeouts, and a restarted node
 * re-syncs its shards from peers before rejoining the serve set.
 *
 * The workload shape every run shares (worker pool, working sets,
 * backoff jitter, cluster key space, ring points, re-sync batching,
 * replica retry period) is not in ServingParams: it is a set of
 * constants at the top of RpcServingLoad.cc.
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

/** Host-side load-shedding policy when the admission queue is full. */
enum class ShedPolicy : std::uint8_t
{
    None,     ///< unbounded FIFO admission (the PR 6 behaviour)
    Tail,     ///< bounded queue, drop the incoming request
    GetsFirst ///< bounded queue, evict a queued GET before a PUT
};

const char *shedPolicyName(ShedPolicy s);

/**
 * Replicated-cluster serving mode (DESIGN.md §15): N serving nodes
 * behind a consistent-hash shard map with R-way replication, a
 * whole-node crash/restart fault model, client failover, and
 * resync-before-rejoin for restarted nodes.
 *
 * With enabled=false (default) the workload is the single-server
 * harness, byte-identical to every pre-cluster golden. With
 * enabled=true but nodes=1, replication=1 and crashRatePerSec=0 the
 * cluster machinery is structurally inert: same topology, same event
 * order, same RNG consumption on every shared stream — the serving
 * digest stays byte-identical to the disabled path (asserted by
 * bench/serving_failover's golden cell).
 */
struct ClusterServingParams
{
    bool enabled = false;
    /** Serving nodes (ids 1..N behind a switch; 1 keeps the direct
     *  client-server link of the single-node harness). */
    std::uint32_t nodes = 1;
    /** Replica count R per key. A PUT is acknowledged only after all
     *  R replicas installed it (strict primary-backup). */
    std::uint32_t replication = 1;
    /** Per-node whole-node crash hazard, events per simulated second
     *  (0 = no crashes, no draws). Crash instants come from each
     *  node's own "<node>.crash" FaultDomain. */
    double crashRatePerSec = 0.0;
    /** Power-fail to cold-boot delay. */
    Tick restartDelay = usToTicks(300);
    /** How long the client avoids a node after a timeout on it. */
    Tick suspectTicks = usToTicks(200);
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
    /** Handler bus share under MemArbPolicy::StaticCap. */
    double handlerShare = 0.5;
    /**
     * Leave the match table empty: the stage is built but classifies
     * nothing, so every frame takes the plain host path. Used by the
     * zero-handler golden check (must be byte-identical to
     * NetDimmHost).
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
    /** Host admission-queue bound; 0 keeps the PR 6 unbounded FIFO. */
    std::uint32_t admitDepth = 0;
    /** What to do with the overflow when admitDepth is exceeded. */
    ShedPolicy shed = ShedPolicy::None;
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

/** Build a two-node serving cell from @p base and run it. */
ServingResult runServing(const SystemConfig &base,
                         const ServingParams &p);

} // namespace netdimm

#endif // NETDIMM_WORKLOAD_RPCSERVINGLOAD_HH
