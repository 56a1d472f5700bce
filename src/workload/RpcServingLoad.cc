#include "workload/RpcServingLoad.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kernel/Node.hh"
#include "kernel/NodeLifecycle.hh"
#include "net/Link.hh"
#include "net/Switch.hh"
#include "sim/Random.hh"
#include "workload/MemLatencyProbe.hh"
#include "workload/MlcInjector.hh"
#include "workload/ShardMap.hh"

namespace netdimm
{

const char *
placementName(ServingPlacement p)
{
    switch (p) {
    case ServingPlacement::Dnic:
        return "dNIC";
    case ServingPlacement::Inic:
        return "iNIC";
    case ServingPlacement::NetDimmHost:
        return "NetDIMM";
    case ServingPlacement::NetDimmHandlers:
        return "NetDIMM+h";
    }
    return "?";
}

namespace
{

// -- fixed workload shape ----------------------------------------------
// Host application model.
/** Concurrent application workers on the server. */
constexpr std::uint32_t hostWorkers = 2;
/** Per-request compute cost, core cycles at the host clock. */
constexpr std::uint64_t hostServiceCycles = 6000;
/** Host-side KV working set, pages. */
constexpr std::uint32_t hostKvSetPages = 64;
// Interference probe and MLC injector (ServingParams::probe / mlc).
/** Probe working set: exceeds the LLC, so dependent loads actually
 *  reach the local memory controller. */
constexpr std::uint32_t probeSetPages = 1024;
/** Probe think time between dependent loads. */
constexpr double probeThinkTimeNs = 100.0;
/** Pages per MLC stream (read + write): 2 x 1024 pages = 8 MB, four
 *  times the LLC, so the injector streams mostly miss. */
constexpr std::uint32_t mlcStreamPages = 1024;
/** Deterministic +/- jitter fraction applied to each client backoff
 *  (drawn from a named FaultDomain stream, so the schedule is a pure
 *  function of the config seed). */
constexpr double backoffJitter = 0.1;
// Cluster routing, replication and recovery.
/** Logical KV key space; keys are drawn uniformly from [1, N]. */
constexpr std::uint64_t clusterKeyCount = 2048;
/** Virtual points per node on the consistent-hash ring. */
constexpr std::uint32_t ringPointsPerNode = 48;
/** KV entries per shard re-sync frame. */
constexpr std::uint32_t syncFrameEntries = 5;
/** Gap between successive re-sync frames from one source node. */
constexpr Tick resyncPace = usToTicks(2);
/** Receiver-side period for re-requesting missing re-sync frames. */
constexpr Tick resyncNagPeriod = usToTicks(50);
/** Coordinator retransmit period for unacked replica writes. */
constexpr Tick replRetryPeriod = usToTicks(50);
/** How long the client avoids a node after a timeout on it. */
constexpr Tick suspectTicks = usToTicks(60);

/** The header of one RPC frame. */
struct RpcHeader
{
    RpcOp op = RpcOp::None;
    std::uint64_t key = 0;
    std::uint64_t kvKey = 0;
    std::uint64_t version = 0;
    Tick deadline = 0;
};

/** Build an RPC frame of @p bytes from @p from to node @p dst, stamp
 *  @p h on it and send it. Every RPC rides flow 1. */
void
sendRpc(Node &from, std::uint32_t bytes, std::uint32_t dst,
        const RpcHeader &h)
{
    PacketPtr pkt = from.makeTxPacket(bytes, dst, /*flow=*/1);
    pkt->rpcOp = h.op;
    pkt->rpcKey = h.key;
    pkt->rpcKvKey = h.kvKey;
    pkt->rpcVersion = h.version;
    pkt->rpcDeadline = h.deadline;
    from.sendPacket(pkt);
}

/** Whether the handler stage serves KV ops (not just exists). */
bool
offloads(const ServingParams &p)
{
    return p.placement == ServingPlacement::NetDimmHandlers &&
           !p.emptyMatchTable;
}

/** Serve KV ops on @p n's handler stage. A PUT reaches the wimpy
 *  cores only when it needs no coordinator: a write with backups
 *  carries a version and a replication fan-out, which stay on the
 *  host path. */
void
serveKvOps(Node &n, std::uint32_t replication)
{
    HandlerStage *hs = n.netdimm()->handlers();
    ND_ASSERT(hs);
    hs->serve(RpcOp::Get);
    if (replication == 1)
        hs->serve(RpcOp::Put);
}

/** Replicated KV contents: key -> newest installed version. */
using KvStore = std::unordered_map<std::uint64_t, std::uint64_t>;

/** One batch of re-sync entries, streamed from a peer's node. */
struct SyncFrame
{
    Node *src = nullptr;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kv;
    bool got = false;
};

/** Everything a restarted server recovers, and from whom. */
struct SyncPlan
{
    std::uint64_t id = 0;
    std::vector<SyncFrame> frames;
    std::size_t remaining = 0;
    std::uint32_t nags = 0;
};

/**
 * One serving node's host side: bounded admission, the worker pool,
 * the replicated store, replication fan-out for the PUTs it
 * coordinates, and re-sync apply after a restart. It sees its own
 * Node, the parameters, the shard map and the cluster-wide replica
 * write id counter, never a peer server.
 */
class Server
{
  public:
    /** This server's share of the ServingResult counters of the same
     *  names; Cluster::run() sums them. */
    std::uint64_t hostServed = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedGets = 0;
    std::uint64_t shedExpired = 0;
    std::uint64_t resyncBytes = 0;

    Server(Node &node, const ServingParams &p, const ShardMap &shard,
           std::uint64_t &replIds)
        : _node(node), _eq(node.eventq()), _p(p), _shard(shard),
          _replIds(replIds),
          _valueStride((p.valueBytes + cachelineBytes - 1) /
                       cachelineBytes * cachelineBytes)
    {
        _kvSet.reserve(hostKvSetPages);
        for (std::uint32_t j = 0; j < hostKvSetPages; ++j)
            _kvSet.push_back(node.allocWorkloadPage());
    }

    Node &node() { return _node; }
    std::uint32_t id() const { return _node.id(); }
    const KvStore &store() const { return _store; }
    /** Restarted but not yet re-synced: out of the serve set. */
    bool resyncing() const { return _resyncing; }
    /** Down-until-rejoin time, counting an outage still open. */
    Tick
    downTicks() const
    {
        bool open = !_node.alive() || _resyncing;
        return _downTicks + (open ? _eq.curTick() - _downStart : 0);
    }

    void
    onRx(const PacketPtr &pkt)
    {
        if (pkt->rpcOp == RpcOp::ReplAck) {
            onReplAck(pkt);
            return;
        }
        if (pkt->rpcOp == RpcOp::SyncData) {
            onSyncData(pkt);
            return;
        }
        if (pkt->rpcOp != RpcOp::Get && pkt->rpcOp != RpcOp::Put &&
            pkt->rpcOp != RpcOp::ReplPut)
            return;
        // A resyncing node is not in the serve set: client traffic is
        // refused (the client's timeout fails it over), but replicated
        // writes are accepted and merged so a write acked during the
        // outage lands here without waiting for the sync stream.
        if (_resyncing && pkt->rpcOp != RpcOp::ReplPut)
            return;
        // Bounded admission: a full queue sheds instead of growing
        // without bound (the collapse mode). GetsFirst keeps writes --
        // a queued GET is evicted to make room, on the theory that a
        // dropped read retries cheaply while a dropped write loses
        // work.
        if (_p.admitDepth && _q.size() >= _p.admitDepth) {
            auto get = _q.end();
            if (_p.shed == ShedPolicy::GetsFirst &&
                pkt->rpcOp != RpcOp::Get)
                get = std::find_if(_q.begin(), _q.end(), [](auto &r) {
                    return r->rpcOp == RpcOp::Get;
                });
            if (get == _q.end()) {
                ++shedQueueFull;
                return; // the client's timeout machinery owns it now
            }
            _q.erase(get);
            ++shedGets;
        }
        _q.push_back(pkt);
        trySrv();
    }

    /** Crash hook: every volatile workload structure dies with the
     *  node. Node::crash() itself wipes the device/driver state and
     *  bumps the boot generation, which retires every service chain
     *  and timer this server had in flight. */
    void
    wipe()
    {
        _q.clear();
        _busy = 0;
        _pending.clear();
        _store.clear();
        _plan.reset();
        _resyncing = false;
        _downStart = _eq.curTick();
    }

    /** Restart hook: cold boot done, now re-sync shards by @p plan
     *  (null: nothing to recover) before rejoining the serve set. */
    void
    beginResync(std::unique_ptr<SyncPlan> plan)
    {
        _resyncing = true;
        _plan = std::move(plan);
        if (!_plan) {
            rejoin();
            return;
        }
        std::map<Node *, std::uint32_t> pos;
        for (std::size_t f = 0; f < _plan->frames.size(); ++f)
            scheduleFrameSend(
                f, Tick(pos[_plan->frames[f].src]++ + 1) * resyncPace);
        armNag();
    }

  private:
    /** One client PUT waiting for its backup acks. */
    struct PendingRepl
    {
        PacketPtr req;
        std::uint64_t key = 0;
        std::uint64_t version = 0;
        std::vector<std::uint32_t> waiting;
        std::uint32_t tries = 0;
    };

    /** @p fn as a callback that dies if the node crashes first. */
    template <typename F>
    auto
    thisBoot(F fn)
    {
        return [this, g = _node.bootGen(), fn](auto...) {
            if (g == _node.bootGen())
                fn();
        };
    }

    void
    trySrv()
    {
        while (_busy < hostWorkers && !_q.empty()) {
            PacketPtr req = _q.front();
            _q.pop_front();
            // Deadline-aware dequeue: serving an already-dead request
            // burns a worker for a reply nobody counts.
            if (_p.dropExpiredAtDequeue && req->rpcDeadline != 0 &&
                _eq.curTick() + _p.dequeueMargin >= req->rpcDeadline) {
                ++shedExpired;
                continue;
            }
            ++_busy;
            service(req);
        }
    }

    /** Hash-bucket probe, then the value itself, then compute; the
     *  shape of the on-DIMM KV body, but through the host LLC and
     *  channel controllers. */
    void
    service(const PacketPtr &req)
    {
        std::uint64_t h = handlerHash(req->rpcKey);
        Addr bucket = _kvSet[std::size_t(h % _kvSet.size())] +
                      ((h >> 8) % (pageBytes / cachelineBytes)) *
                          cachelineBytes;
        Addr val = _kvSet[std::size_t((h >> 16) % _kvSet.size())] +
                   ((h >> 24) % (pageBytes / _valueStride)) *
                       _valueStride;
        bool put = req->rpcOp != RpcOp::Get;
        _node.cpuAccess(
            bucket, cachelineBytes, false,
            thisBoot([this, req, val, put] {
                _node.cpuAccess(
                    val, _p.valueBytes, put, thisBoot([this, req] {
                        _eq.scheduleRel(
                            _node.config().cpu.cycles(hostServiceCycles),
                            thisBoot([this, req] { finish(req); }));
                    }));
            }));
    }

    void
    finish(const PacketPtr &req)
    {
        if (req->rpcOp != RpcOp::Get)
            installMax(req->rpcKvKey, req->rpcVersion);
        if (req->rpcOp == RpcOp::ReplPut) {
            // Backup half of a replicated write: confirm to the
            // coordinating replica.
            sendRpc(_node, 64, req->srcNode,
                    {.op = RpcOp::ReplAck, .key = req->rpcKey,
                     .kvKey = req->rpcKvKey, .version = req->rpcVersion});
        } else if (req->rpcOp == RpcOp::Put &&
                   _p.cluster.replication >= 2 && startReplication(req)) {
            ++hostServed; // the last ReplAck sends the reply
        } else {
            std::uint64_t ver = 0;
            std::uint32_t bytes = 64;
            if (req->rpcOp == RpcOp::Put) {
                ver = req->rpcVersion;
            } else {
                auto it = _store.find(req->rpcKvKey);
                ver = it == _store.end() ? 0 : it->second;
                bytes = std::max<std::uint32_t>(_p.valueBytes, 64);
            }
            sendRpc(_node, bytes, req->srcNode,
                    {.op = RpcOp::Resp, .key = req->rpcKey,
                     .kvKey = req->rpcKvKey, .version = ver});
            ++hostServed;
        }
        --_busy;
        trySrv();
    }

    /** Fan a client PUT out to its backup replicas; true if the
     *  reply now waits for their acks. */
    bool
    startReplication(const PacketPtr &req)
    {
        _shard.replicas(req->rpcKvKey, _p.cluster.replication, _replicas);
        PendingRepl pr;
        pr.req = req;
        pr.key = req->rpcKvKey;
        pr.version = req->rpcVersion;
        for (std::uint32_t r : _replicas)
            if (r != _node.id())
                pr.waiting.push_back(r);
        if (pr.waiting.empty())
            return false;
        std::uint64_t id = ++_replIds;
        for (std::uint32_t b : pr.waiting)
            sendReplPut(id, pr, b);
        _pending.emplace(id, std::move(pr));
        armReplRetry(id);
        return true;
    }

    void
    sendReplPut(std::uint64_t id, const PendingRepl &pr,
                std::uint32_t backup)
    {
        sendRpc(_node, std::max<std::uint32_t>(_p.valueBytes, 64), backup,
                {.op = RpcOp::ReplPut, .key = id, .kvKey = pr.key,
                 .version = pr.version});
    }

    /**
     * Retransmit unacked replica writes on a fixed period. A backup
     * that is down drops them on the dead link; the retransmit keeps
     * firing until the backup reboots and accepts (installs are
     * idempotent max-merges), which is what makes the strict-R ack
     * durable across the outage.
     */
    void
    armReplRetry(std::uint64_t id)
    {
        _eq.scheduleRel(replRetryPeriod, thisBoot([this, id] {
            auto it = _pending.find(id);
            if (it == _pending.end())
                return;
            ++it->second.tries;
            // Replication converges once the backup reboots; an entry
            // spinning this long is a protocol bug.
            ND_ASSERT(it->second.tries < 4096);
            for (std::uint32_t b : it->second.waiting)
                sendReplPut(id, it->second, b);
            armReplRetry(id);
        }));
    }

    void
    onReplAck(const PacketPtr &pkt)
    {
        auto it = _pending.find(pkt->rpcKey);
        if (it == _pending.end())
            return; // duplicate ack of an already-complete write
        auto &w = it->second.waiting;
        auto f = std::find(w.begin(), w.end(), pkt->srcNode);
        if (f == w.end())
            return;
        w.erase(f);
        if (!w.empty())
            return;
        // Every replica holds the write: ack the client.
        const PendingRepl &pr = it->second;
        sendRpc(_node, 64, pr.req->srcNode,
                {.op = RpcOp::Resp, .key = pr.req->rpcKey,
                 .kvKey = pr.key, .version = pr.version});
        _pending.erase(it);
    }

    void
    installMax(std::uint64_t k, std::uint64_t v)
    {
        auto [it, ins] = _store.emplace(k, v);
        if (!ins && v > it->second)
            it->second = v;
    }

    /** Emit frame @p f from its source node after @p delay: a real
     *  network transfer that pays wire and RX-path time and can die
     *  on a down link. */
    void
    scheduleFrameSend(std::size_t f, Tick delay)
    {
        _eq.scheduleRel(delay, thisBoot([this, f, pid = _plan->id] {
            if (!_plan || _plan->id != pid)
                return;
            SyncFrame &fr = _plan->frames[f];
            // A dead source is retried by the nag once it is back.
            if (fr.got || !fr.src->alive())
                return;
            std::uint32_t bytes = std::max<std::uint32_t>(
                64, std::uint32_t(fr.kv.size()) * (16 + _p.valueBytes));
            sendRpc(*fr.src, bytes, _node.id(),
                    {.op = RpcOp::SyncData, .key = pid, .version = f});
        }));
    }

    void
    onSyncData(const PacketPtr &pkt)
    {
        if (!_resyncing || !_plan || pkt->rpcKey != _plan->id)
            return;
        std::size_t fi = std::size_t(pkt->rpcVersion); // frame index
        if (fi >= _plan->frames.size() || _plan->frames[fi].got)
            return;
        _plan->frames[fi].got = true;
        for (const auto &[k, v] : _plan->frames[fi].kv)
            installMax(k, v);
        resyncBytes += pkt->bytes;
        if (--_plan->remaining == 0) {
            _plan.reset();
            rejoin();
        }
    }

    /** Receiver-side watchdog: re-request frames still missing (lost
     *  to a link drop or a not-yet-rebooted source). */
    void
    armNag()
    {
        _eq.scheduleRel(resyncNagPeriod, thisBoot([this, pid = _plan->id] {
            if (!_plan || _plan->id != pid)
                return;
            ++_plan->nags;
            ND_ASSERT(_plan->nags < 512);
            Tick off = 0;
            for (std::size_t f = 0; f < _plan->frames.size(); ++f)
                if (!_plan->frames[f].got)
                    scheduleFrameSend(f, off += resyncPace);
            armNag();
        }));
    }

    /** Re-sync complete: back into the serve set. On the handler
     *  placement this is also where the served ops return -- a
     *  resyncing node must not serve stale GETs from its wimpy
     *  cores. */
    void
    rejoin()
    {
        _resyncing = false;
        _downTicks += _eq.curTick() - _downStart;
        if (offloads(_p))
            serveKvOps(_node, _p.cluster.replication);
    }

    Node &_node;
    EventQueue &_eq;
    const ServingParams &_p;
    const ShardMap &_shard;
    std::uint64_t &_replIds;
    const std::uint32_t _valueStride;

    std::vector<Addr> _kvSet;
    std::deque<PacketPtr> _q;
    std::uint32_t _busy = 0;
    bool _resyncing = false;
    Tick _downStart = 0;
    Tick _downTicks = 0;
    KvStore _store;
    std::unordered_map<std::uint64_t, PendingRepl> _pending;
    std::unique_ptr<SyncPlan> _plan;
    std::vector<std::uint32_t> _replicas;
};

/**
 * The open-loop client: Poisson arrivals, retry with backoff, hedging,
 * failover routing past suspected replicas, and the acked-write
 * ledger the end-of-run audit checks. Its ServingResult holds what
 * the client measured; the cluster adds the rest after the run.
 */
class Client
{
  public:
    /** Acked-write ledger entry: newest acked version and when. */
    struct AckedWrite
    {
        std::uint64_t version = 0;
        Tick at = 0;
    };

    Client(Node &node, const ServingParams &p, const ShardMap &shard,
           std::uint64_t seed)
        : _node(node), _eq(node.eventq()), _p(p), _shard(shard),
          _total(p.requests + p.warmup),
          _meanGapTicks(double(tickPerSec) / p.qps),
          _baseTimeout(p.retryTimeout ? p.retryTimeout
                       : p.deadline   ? 2 * p.deadline
                                      : usToTicks(20)),
          _arrivals(seed ^ 0x5E12F1A6ull), _ops(seed ^ 0x0A9B3C5Dull),
          _kvKeys(seed ^ 0x7C3A1B2Eull), _retryJitter("rpc.retry", seed)
    {
        _node.setReceiveHandler(
            [this](const PacketPtr &pkt, Tick now) { onReply(pkt, now); });
        _doneFlags.assign(std::size_t(_total) + 1, 0);
        _inFlight.reserve(256);
    }

    using Ledger = std::unordered_map<std::uint64_t, AckedWrite>;

    ServingResult &result() { return _res; }
    const Ledger &acked() const { return _acked; }

    /** Send the next request and schedule the one after it. */
    void
    fire()
    {
        if (_res.sent >= _total)
            return;
        std::uint64_t key = ++_res.sent; // rpcKey = 1-based send index
        Flight f;
        f.get = _ops.uniformDouble() < _p.getFraction;
        // Traffic targets a logical key space; versions are
        // client-assigned and monotone, so replica install-if-newer
        // resolves every duplicate and reordering. The key draw comes
        // from a stream nothing else consumes.
        f.kvKey = _kvKeys.uniformInt(1, clusterKeyCount);
        f.version = f.get ? 0 : ++_versionCtr;
        f.firstSend = _eq.curTick();
        f.deadline = _p.deadline ? f.firstSend + _p.deadline : 0;
        f.sends = 1;
        sendReq(key, _inFlight.emplace(key, f).first->second);
        if (_p.maxRetries > 0)
            armTimeout(key, 1);
        if (_p.hedge)
            armHedge(key);
        _eq.scheduleRel(Tick(_arrivals.exponential(_meanGapTicks)),
                        [this] { fire(); });
    }

  private:
    /** Bookkeeping for one request, across retries/hedges. */
    struct Flight
    {
        Tick firstSend = 0;
        Tick deadline = 0; ///< absolute; 0 = none
        std::uint32_t sends = 0;
        bool get = false;
        bool hedged = false;
        std::uint64_t kvKey = 0;   ///< logical key, 1..clusterKeyCount
        std::uint64_t version = 0; ///< PUT version; retries reuse it
        std::uint32_t rsOffset = 0;
        std::uint32_t target = 1;
    };

    /** Route @p f (first unsuspected replica clockwise of its failover
     *  cursor; all-suspected falls back to the cursor itself, since a
     *  retry storm must still send somewhere) and send it. */
    void
    sendReq(std::uint64_t key, Flight &f)
    {
        _shard.replicas(f.kvKey, _p.cluster.replication, _replicas);
        Tick now = _eq.curTick();
        std::uint32_t n = std::uint32_t(_replicas.size());
        f.target = _replicas[f.rsOffset % n];
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint32_t cand = _replicas[(f.rsOffset + i) % n];
            auto su = _suspectUntil.find(cand);
            if (su == _suspectUntil.end() || su->second <= now) {
                f.target = cand;
                break;
            }
        }
        if (f.target != _replicas[0])
            ++_res.failoverRedirects;
        std::uint32_t bytes =
            f.get ? 64 : std::max<std::uint32_t>(_p.valueBytes, 64);
        sendRpc(_node, bytes, f.target,
                {.op = f.get ? RpcOp::Get : RpcOp::Put, .key = key,
                 .kvKey = f.kvKey, .version = f.version,
                 .deadline = f.deadline});
    }

    // Timeout for send #send_no (1-based): exponential backoff with
    // deterministic +/- jitter. Stale firings (reply arrived, or a
    // newer send took over) are no-ops.
    void
    armTimeout(std::uint64_t key, std::uint32_t send_no)
    {
        double j =
            1.0 + backoffJitter * (2.0 * _retryJitter.uniform() - 1.0);
        Tick to = Tick(double(_baseTimeout << (send_no - 1)) * j);
        _eq.scheduleRel(to, [this, key, send_no] {
            auto it = _inFlight.find(key);
            if (it == _inFlight.end() || it->second.sends != send_no)
                return;
            Flight &f = it->second;
            ++_res.timeouts;
            // Failure detection IS the timeout: suspect whoever we
            // were waiting on and advance the failover cursor, so the
            // next send lands on a different replica.
            _suspectUntil[f.target] = _eq.curTick() + suspectTicks;
            ++f.rsOffset;
            // Deadline-aware retry: resending a request whose deadline
            // already passed only amplifies overload (the retry is
            // shed server-side anyway), so a dead request is abandoned
            // instead -- the anti-retry-storm half of the retry policy.
            if (f.sends <= _p.maxRetries &&
                (f.deadline == 0 || _eq.curTick() < f.deadline)) {
                ++f.sends;
                ++_res.retries;
                sendReq(key, f);
                armTimeout(key, f.sends);
            } else {
                ++_res.abandoned;
                _inFlight.erase(it);
            }
        });
    }

    // Hedge: race a duplicate once the request has been outstanding
    // longer than the running p99 (tail-at-scale); first reply wins,
    // the loser's reply is dropped by the duplicate check.
    void
    armHedge(std::uint64_t key)
    {
        Tick delay = _p.hedgeFloor;
        if (_res.rtt.count() >= 50)
            delay = std::max(delay, Tick(_res.rtt.percentile(0.99)));
        _eq.scheduleRel(delay, [this, key] {
            auto it = _inFlight.find(key);
            if (it == _inFlight.end() || it->second.hedged)
                return;
            it->second.hedged = true;
            ++_res.hedges;
            sendReq(key, it->second);
        });
    }

    void
    onReply(const PacketPtr &pkt, Tick now)
    {
        if (pkt->rpcOp != RpcOp::Resp)
            return;
        auto it = _inFlight.find(pkt->rpcKey);
        if (it == _inFlight.end()) {
            // Sequence check: a key already answered once (retry raced
            // the original, or a failed-over request was served by
            // both the suspected node and its replacement) is counted
            // exactly once; the duplicate is dropped here.
            if (pkt->rpcKey >= 1 && pkt->rpcKey <= _total &&
                _doneFlags[std::size_t(pkt->rpcKey)])
                ++_res.duplicateReplies;
            return;
        }
        const Flight &f = it->second;
        ++_res.completed;
        if (pkt->rpcKey > _p.warmup) {
            _res.rtt.sample(now - f.firstSend);
            if (f.deadline == 0 || now <= f.deadline)
                ++_res.goodRpcs;
        }
        // Only versioned replies touch the ledger. Version 0 is a
        // handler-served reply (the wimpy cores keep their own device
        // KV, outside the replicated store) or a GET of a
        // never-written key.
        if (pkt->rpcVersion > 0 && !f.get) {
            // Acked-write ledger: the durability obligation the
            // end-of-run audit checks against surviving replicas.
            AckedWrite &a = _acked[f.kvKey];
            if (f.version > a.version)
                a = {f.version, now};
        } else if (pkt->rpcVersion > 0) {
            // Read-your-writes staleness: a GET *issued after* a write
            // of this key was acked must not return an older version.
            auto a = _acked.find(f.kvKey);
            if (a != _acked.end() && pkt->rpcVersion < a->second.version &&
                f.firstSend >= a->second.at)
                ++_res.staleReads;
        }
        _doneFlags[std::size_t(pkt->rpcKey)] = 1;
        _inFlight.erase(it);
    }

    Node &_node;
    EventQueue &_eq;
    const ServingParams &_p;
    const ShardMap &_shard;
    const std::uint64_t _total;
    const double _meanGapTicks;
    const Tick _baseTimeout;

    ServingResult _res;
    std::unordered_map<std::uint64_t, Flight> _inFlight;
    std::vector<std::uint8_t> _doneFlags;
    std::unordered_map<std::uint32_t, Tick> _suspectUntil;
    Ledger _acked;
    std::uint64_t _versionCtr = 0;
    std::vector<std::uint32_t> _replicas;
    Random _arrivals;
    Random _ops;
    Random _kvKeys;
    FaultDomain _retryJitter;
};

/** @p count consecutive pages @p offset bytes into @p nd's window. */
std::vector<Addr>
windowPages(NetDimmDevice &nd, Addr offset, std::uint32_t count)
{
    std::vector<Addr> pages;
    pages.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        pages.push_back(nd.regionBase() + offset + Addr(i) * pageBytes);
    return pages;
}

/** Run a co-runner over the middle 60% of a cell of @p span ticks:
 *  @p start at 1/5, @p stop at 4/5. */
template <typename Start, typename Stop>
void
duringMiddleWindow(EventQueue &eq, Tick span, Start start, Stop stop)
{
    eq.schedule(span / 5, std::move(start));
    eq.schedule(span * 4 / 5, std::move(stop));
}

/**
 * The serving tier around the servers: the topology (client node,
 * server nodes, a direct link or a switch), the shard map, one Server
 * per node, the crash/restart lifecycles under the one-down-at-a-time
 * gate, the re-sync plans (this is the only role that sees every
 * store), the interference co-runners and the end-of-run audit.
 *
 * The single server is the one-node cluster. At nodes=1 /
 * replication=1 / crashRatePerSec=0 the topology is a direct link,
 * the backup set is empty (the reply goes out as soon as the host
 * finishes), routing and version bookkeeping are pure computation,
 * and the only RNG stream they draw from (the client's key draw)
 * feeds nothing else, so the event order and every digest are those
 * of a plain client-server harness.
 */
class Cluster
{
  public:
    Cluster(const SystemConfig &base, const ServingParams &p) : _p(p)
    {
        const ClusterServingParams &cl = p.cluster;
        ND_ASSERT(p.qps > 0 && p.valueBytes >= 1 &&
                  p.valueBytes <= pageBytes);
        ND_ASSERT(cl.nodes >= 1 && cl.replication >= 1 &&
                  cl.replication <= cl.nodes);

        SystemConfig cfg = base;
        switch (p.placement) {
        case ServingPlacement::Dnic:
            cfg.nic = NicKind::Discrete;
            break;
        case ServingPlacement::Inic:
            cfg.nic = NicKind::Integrated;
            break;
        case ServingPlacement::NetDimmHost:
            cfg.nic = NicKind::NetDimm;
            break;
        case ServingPlacement::NetDimmHandlers:
            cfg.nic = NicKind::NetDimm;
            cfg.handler.enabled = true;
            cfg.memCtrl.handlerArb = p.arb;
            // One knob arms deadline-aware shedding on both dequeue
            // points: the host worker pool and the handler run queue.
            if (p.dropExpiredAtDequeue) {
                cfg.handler.dropExpiredAtDispatch = true;
                cfg.handler.dispatchMargin = p.dequeueMargin;
            }
            break;
        }
        // Crash schedules draw from each server's own registry, so a
        // crashy cell needs the fault framework up. Zero-crash cells
        // leave it alone: a cell compared byte-for-byte against a
        // fault-free golden must not construct extra domains.
        if (cl.crashRatePerSec > 0)
            cfg.faults.enabled = true;

        // -- topology ---------------------------------------------------
        _clientNode = std::make_unique<Node>(_eq, "client", cfg, 0);
        for (std::uint32_t i = 0; i < cl.nodes; ++i) {
            // Built with append(): GCC 12 flags both assign-then-append
            // (under ASan) and "s" + string (at -O3) with a false
            // -Werror=restrict overlap here.
            std::string name = cl.nodes > 1
                                   ? std::string("s").append(
                                         std::to_string(i + 1))
                                   : std::string("server");
            _serverNodes.push_back(
                std::make_unique<Node>(_eq, name, cfg, i + 1));
        }
        if (cl.nodes == 1) {
            // One server needs no switch: a direct link, no extra hop.
            _links.push_back(
                std::make_unique<EthLink>(_eq, "link", cfg.eth));
            connectNodes(*_links[0], *_clientNode, *_serverNodes[0]);
        } else {
            _sw = std::make_unique<Switch>(_eq, "sw", cfg.eth);
            auto wire = [this, &cfg](Node &n) {
                auto link = std::make_unique<EthLink>(
                    _eq, n.name() + ".l", cfg.eth);
                link->connect(_sw.get(), n.endpoint());
                n.connectTo(*link);
                _sw->addRoute(n.id(), link.get());
                _links.push_back(std::move(link));
            };
            wire(*_clientNode);
            for (auto &sn : _serverNodes)
                wire(*sn);
        }

        std::vector<std::uint32_t> ids;
        for (auto &sn : _serverNodes) {
            ids.push_back(sn->id());
            if (!offloads(p))
                continue;
            Node *n = sn.get();
            auto configure = [n, vb = p.valueBytes] {
                HandlerStage *hs = n->netdimm()->handlers();
                ND_ASSERT(hs);
                hs->configureKv(/*buckets=*/1u << 14,
                                /*slots=*/1u << 14, vb);
            };
            configure();
            serveKvOps(*n, cl.replication);
            // Cold boot replays the device-side KV setup; the served
            // ops wait for rejoin() so a resyncing node cannot serve.
            n->setColdBootHook(configure);
        }
        _shard = std::make_unique<ShardMap>(std::move(ids),
                                            ringPointsPerNode);

        for (auto &sn : _serverNodes) {
            _servers.push_back(
                std::make_unique<Server>(*sn, p, *_shard, _replIds));
            if (cl.crashRatePerSec > 0)
                addLifecycle(*_servers.back());
        }
        for (auto &srv : _servers) {
            Server *s = srv.get();
            s->node().setReceiveHandler(
                [s](const PacketPtr &pkt, Tick) { s->onRx(pkt); });
        }
    }

    Node &clientNode() { return *_clientNode; }
    const ShardMap &shardMap() const { return *_shard; }

    /** Run the cell driven by @p client and report it. */
    ServingResult
    run(Client &client)
    {
        // -- interference co-runners over the NetDIMM window -----------
        // Both run the middle 60% of the cell so ramp-up and drain
        // don't dilute the contention signal; the stop events bound
        // their event chains, so the queue still drains. Pages sit in
        // the middle of the local DRAM: above the rings and RX buffers
        // at the bottom, below the handler KV carve at the top. No
        // warm-up on purpose -- the cold LLC makes essentially every
        // access a local-MC round trip, which is the contention being
        // measured.
        Node &server = *_serverNodes[0];
        NetDimmDevice *nd = server.netdimm();
        if (_p.probe && nd) {
            _probe = std::make_unique<MemLatencyProbe>(
                _eq, "probe", server,
                windowPages(*nd, nd->localBytes() / 4, probeSetPages),
                nsToTicks(probeThinkTimeNs));
            MemLatencyProbe *pr = _probe.get();
            duringMiddleWindow(
                _eq, span(),
                [pr] {
                    pr->start();
                    pr->resetStats();
                },
                [pr] { pr->stop(); });
        }
        if (_p.mlc && nd) {
            _mlc = std::make_unique<MlcInjector>(
                _eq, "mlc", server, /*inject_delay=*/0,
                windowPages(*nd, nd->localBytes() / 2,
                            2 * mlcStreamPages),
                /*max_outstanding=*/64);
            MlcInjector *inj = _mlc.get();
            // Snapshot achieved bandwidth at stop time, while the
            // window is still the denominator.
            duringMiddleWindow(
                _eq, span(), [inj] { inj->start(); },
                [inj, r = &client.result()] {
                    r->mlcGBps = inj->achievedGBps();
                    inj->stop();
                });
        }

        for (auto &l : _lifecycles)
            l->start();
        client.fire();
        _eq.run();

        ServingResult &res = client.result();
        if (_probe) {
            res.probeMeanNs = _probe->meanLatencyNs();
            res.probeAccesses = _probe->accesses();
        }
        res.lost = res.sent - res.completed;
        res.simulatedUs = ticksToUs(_eq.curTick());
        res.events = _eq.executedEvents();
        if (nd)
            res.handlerBusFraction = nd->localMc().handlerBusFraction();
        Tick totalDown = 0;
        for (auto &srv : _servers) {
            res.hostServed += srv->hostServed;
            res.shedQueueFull += srv->shedQueueFull;
            res.shedGets += srv->shedGets;
            res.shedExpired += srv->shedExpired;
            res.resyncBytes += srv->resyncBytes;
            totalDown += srv->downTicks();
            Node &sn = srv->node();
            if (HandlerStage *hs =
                    sn.netdimm() ? sn.netdimm()->handlers() : nullptr) {
                res.handlerServed += hs->replies();
                res.handlerOverflows += hs->overflows();
                res.handlerShedExpired += hs->shedExpired();
                res.handlerHangFaults += hs->hangFaults();
                res.handlerCrashFaults += hs->crashFaults();
                res.handlerCorruptNacks += hs->corruptNacks();
                res.watchdogResets += hs->watchdogResets();
                res.drainedToHost += hs->drainedToHost();
                res.faultFallbacks += hs->faultFallbacks();
            }
            if (const FaultRegistry *reg = sn.faults()) {
                res.faultsInjected += reg->injected();
                res.faultsRecovered += reg->recovered();
                res.faultsUnrecovered += reg->unrecovered();
                res.ledgerClosed =
                    res.ledgerClosed && reg->ledgerClosed();
            }
            res.crashes += sn.crashesInjected();
            res.restarts += sn.restarts();
        }
        if (span() > 0)
            res.deadFraction = double(totalDown) /
                               (double(_p.cluster.nodes) * double(span()));

        // Durability audit: every acknowledged write must still be
        // held, at its acked version or newer, by at least one member
        // of its replica set.
        res.ackedPuts = client.acked().size();
        for (const auto &[k, a] : client.acked()) {
            _shard->replicas(k, _p.cluster.replication, _replicas);
            auto held = [&, k = k, v = a.version](std::uint32_t id) {
                const KvStore &st = _servers[id - 1]->store();
                auto f = st.find(k);
                return f != st.end() && f->second >= v;
            };
            if (std::none_of(_replicas.begin(), _replicas.end(), held))
                ++res.lostAckedWrites;
        }
        return res;
    }

  private:
    /** The offered-load window: every request's nominal send time. */
    Tick
    span() const
    {
        return Tick(double(_p.requests + _p.warmup) / _p.qps *
                    tickPerSec);
    }

    /** Put @p s's node under a crash/restart schedule. */
    void
    addLifecycle(Server &s)
    {
        Node &n = s.node();
        NodeLifecycle::Params lp;
        lp.crashRatePerSec = _p.cluster.crashRatePerSec;
        lp.restartDelay = _p.cluster.restartDelay;
        lp.windowEnd = span();
        _lifecycles.push_back(std::make_unique<NodeLifecycle>(
            _eq, n, n.faults()->domain(n.name() + ".crash"), lp));
        NodeLifecycle &life = *_lifecycles.back();
        // At most one node down or resyncing at a time: the
        // precondition of the R>=2 zero-lost-acked-writes argument (a
        // write always has a surviving replica, and the survivor
        // completes the resync before it may die).
        life.setGate([this] { return healthy(); });
        life.setOnCrash([&s] { s.wipe(); });
        life.setOnRestart([this, &s] { s.beginResync(planResync(s)); });
    }

    bool
    healthy() const
    {
        auto down = [](const auto &l) { return l->down(); };
        auto resyncing = [](const auto &s) { return s->resyncing(); };
        return std::none_of(_lifecycles.begin(), _lifecycles.end(),
                            down) &&
               std::none_of(_servers.begin(), _servers.end(), resyncing);
    }

    /**
     * Which (key, version) pairs @p self must recover, and from whom:
     * for every key @p self replicates, the best holder among serving
     * peers (max version, smallest node id on ties). The merge rule is
     * commutative, so the unordered per-peer store iteration cannot
     * perturb the plan; the plan itself is laid out in key order per
     * source. Null when there is nothing to recover.
     */
    std::unique_ptr<SyncPlan>
    planResync(const Server &self)
    {
        std::map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>>
            want;
        for (const auto &o : _servers) {
            if (o.get() == &self || !o->node().alive() || o->resyncing())
                continue;
            std::uint32_t oid = o->id();
            for (const auto &[k, v] : o->store()) {
                _shard->replicas(k, _p.cluster.replication, _replicas);
                if (std::find(_replicas.begin(), _replicas.end(),
                              self.id()) == _replicas.end())
                    continue;
                auto [it, ins] = want.emplace(k, std::make_pair(v, oid));
                if (!ins && (v > it->second.first ||
                             (v == it->second.first &&
                              oid < it->second.second)))
                    it->second = {v, oid};
            }
        }
        if (want.empty())
            return nullptr;
        auto pl = std::make_unique<SyncPlan>();
        pl->id = ++_planIds;
        std::map<std::uint32_t,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>>>
            bySrc;
        for (const auto &[k, best] : want)
            bySrc[best.second].push_back({k, best.first});
        for (auto &[src, kvs] : bySrc) {
            for (std::size_t o = 0; o < kvs.size();
                 o += syncFrameEntries) {
                std::size_t e = std::min(kvs.size(), o + syncFrameEntries);
                pl->frames.push_back(
                    {_serverNodes[src - 1].get(),
                     {kvs.begin() + std::ptrdiff_t(o),
                      kvs.begin() + std::ptrdiff_t(e)}});
            }
        }
        pl->remaining = pl->frames.size();
        return pl;
    }

    const ServingParams &_p;
    std::uint64_t _replIds = 0;
    std::uint64_t _planIds = 0;
    std::vector<std::uint32_t> _replicas;

    // -- simulated system (declaration order = reverse teardown) --------
    EventQueue _eq;
    std::unique_ptr<Node> _clientNode;
    std::vector<std::unique_ptr<Node>> _serverNodes;
    std::unique_ptr<Switch> _sw;
    std::vector<std::unique_ptr<EthLink>> _links;
    std::unique_ptr<ShardMap> _shard;
    std::vector<std::unique_ptr<Server>> _servers;
    std::vector<std::unique_ptr<NodeLifecycle>> _lifecycles;
    std::unique_ptr<MemLatencyProbe> _probe;
    std::unique_ptr<MlcInjector> _mlc;
};

} // namespace

ServingResult
runServing(const SystemConfig &base, const ServingParams &p)
{
    Cluster cluster(base, p);
    Client client(cluster.clientNode(), p, cluster.shardMap(), base.seed);
    return cluster.run(client);
}

} // namespace netdimm
