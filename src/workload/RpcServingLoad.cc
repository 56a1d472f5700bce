#include "workload/RpcServingLoad.hh"

#include <algorithm>
#include <deque>
#include <functional>
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
/** Coordinator retransmit period for unacked replica writes. */
constexpr Tick replRetryPeriod = usToTicks(50);
/** How long the client avoids a node after a timeout on it. */
constexpr Tick suspectTicks = usToTicks(60);

/**
 * One serving cell: client, server node(s), topology, workload state.
 *
 * The single server is the one-node cluster. At nodes=1 /
 * replication=1 / crashRatePerSec=0 the topology is a direct link,
 * the backup set is empty (the reply goes out as soon as the host
 * finishes), routing and version bookkeeping are pure computation,
 * and the only RNG stream they draw from (kvKeys) feeds nothing else,
 * so the event order and every digest are those of a plain
 * client-server harness.
 */
class ServingSim
{
  public:
    ServingSim(const SystemConfig &base, const ServingParams &params);
    ServingResult run();

  private:
    struct SyncFrame
    {
        std::uint32_t src = 0;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> kv;
        bool got = false;
    };

    struct SyncPlan
    {
        std::uint64_t id = 0;
        std::vector<SyncFrame> frames;
        std::size_t remaining = 0;
        std::uint32_t nags = 0;
    };

    /** Server-side state of one serving node. */
    struct ServerCtx
    {
        ServingSim &sim;
        Node &node;

        std::vector<Addr> kvSet;
        std::deque<PacketPtr> q;
        std::uint32_t busy = 0;
        /** Bumped on every crash: a service-chain completion that
         *  straddled the reboot finds its generation stale and dies
         *  silently (the work it was doing was wiped). */
        std::uint64_t gen = 0;
        /** Restarted but not yet re-synced: out of the serve set. */
        bool resyncing = false;
        Tick downStart = 0;
        Tick downTicks = 0;
        /** Replicated KV contents: key -> newest installed version. */
        std::unordered_map<std::uint64_t, std::uint64_t> store;

        /** One client PUT waiting for its backup acks. */
        struct PendingRepl
        {
            PacketPtr req;
            std::uint64_t key = 0;
            std::uint64_t version = 0;
            std::vector<std::uint32_t> waiting;
            std::uint32_t tries = 0;
        };
        std::unordered_map<std::uint64_t, PendingRepl> pending;
        std::unique_ptr<SyncPlan> plan;

        ServerCtx(ServingSim &s, Node &n) : sim(s), node(n)
        {
            kvSet.reserve(hostKvSetPages);
            for (std::uint32_t j = 0; j < hostKvSetPages; ++j)
                kvSet.push_back(node.allocWorkloadPage());
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
            if (pkt->rpcOp != RpcOp::Get &&
                pkt->rpcOp != RpcOp::Put &&
                pkt->rpcOp != RpcOp::ReplPut)
                return;
            // A resyncing node is not in the serve set: client
            // traffic is refused (the client's timeout fails it
            // over), but replicated writes are accepted and merged so
            // a write acked during the outage lands here without
            // waiting for the sync stream.
            if (resyncing && pkt->rpcOp != RpcOp::ReplPut)
                return;
            const ServingParams &p = sim.p;
            // Bounded admission: a full queue sheds instead of
            // growing without bound (the collapse mode). GetsFirst
            // keeps writes -- a queued GET is evicted to make room,
            // on the theory that a dropped read retries cheaply while
            // a dropped write loses work.
            if (p.admitDepth && q.size() >= p.admitDepth) {
                if (p.shed == ShedPolicy::GetsFirst &&
                    pkt->rpcOp != RpcOp::Get) {
                    for (auto it = q.begin(); it != q.end(); ++it) {
                        if ((*it)->rpcOp == RpcOp::Get) {
                            q.erase(it);
                            ++sim.res.shedGets;
                            q.push_back(pkt);
                            trySrv();
                            return;
                        }
                    }
                }
                ++sim.res.shedQueueFull;
                return; // the client's timeout machinery owns it now
            }
            q.push_back(pkt);
            trySrv();
        }

        void
        trySrv()
        {
            while (busy < hostWorkers && !q.empty()) {
                PacketPtr req = q.front();
                q.pop_front();
                // Deadline-aware dequeue: serving an already-dead
                // request burns a worker for a reply nobody counts.
                if (sim.p.dropExpiredAtDequeue &&
                    req->rpcDeadline != 0 &&
                    sim.eq.curTick() + sim.p.dequeueMargin >=
                        req->rpcDeadline) {
                    ++sim.res.shedExpired;
                    continue;
                }
                ++busy;
                service(req);
            }
        }

        void
        service(const PacketPtr &req)
        {
            // Hash-bucket probe, then the value itself, then compute;
            // same shape as the on-DIMM KV body but through the host
            // LLC and channel controllers.
            std::uint64_t h = handlerHash(req->rpcKey);
            std::uint64_t g = gen;
            Addr bucket =
                kvSet[std::size_t(h % kvSet.size())] +
                ((h >> 8) % sim.linesPerPage) * cachelineBytes;
            node.cpuAccess(bucket, cachelineBytes, false,
                           [this, req, h, g](Tick) {
                               if (g != gen)
                                   return;
                               valueAccess(req, h);
                           });
        }

        void
        valueAccess(const PacketPtr &req, std::uint64_t h)
        {
            Addr val =
                kvSet[std::size_t((h >> 16) % kvSet.size())] +
                ((h >> 24) % sim.slotsPerPage) * sim.valueStride;
            bool put = req->rpcOp != RpcOp::Get;
            std::uint64_t g = gen;
            node.cpuAccess(val, sim.p.valueBytes, put,
                           [this, req, g](Tick) {
                               if (g != gen)
                                   return;
                               compute(req);
                           });
        }

        void
        compute(const PacketPtr &req)
        {
            std::uint64_t g = gen;
            sim.eq.scheduleRel(
                sim.cfg.cpu.cycles(hostServiceCycles),
                [this, req, g] {
                    if (g != gen)
                        return;
                    finish(req);
                });
        }

        void
        finish(const PacketPtr &req)
        {
            if (req->rpcOp == RpcOp::ReplPut) {
                // Backup half of a replicated write: install and
                // confirm to the coordinating replica.
                installMax(req->rpcKvKey, req->rpcVersion);
                PacketPtr ack =
                    node.makeTxPacket(64, req->srcNode, req->flowId);
                ack->rpcOp = RpcOp::ReplAck;
                ack->rpcKey = req->rpcKey;
                ack->rpcKvKey = req->rpcKvKey;
                ack->rpcVersion = req->rpcVersion;
                node.sendPacket(ack);
                --busy;
                trySrv();
                return;
            }
            std::uint64_t ver = 0;
            if (req->rpcOp == RpcOp::Put) {
                installMax(req->rpcKvKey, req->rpcVersion);
                ver = req->rpcVersion;
                if (sim.cl.replication >= 2 && startReplication(req))
                    return; // the last ReplAck sends the reply
            } else {
                auto it = store.find(req->rpcKvKey);
                ver = it == store.end() ? 0 : it->second;
            }
            std::uint32_t bytes =
                req->rpcOp == RpcOp::Get
                    ? std::max<std::uint32_t>(sim.p.valueBytes, 64)
                    : 64;
            PacketPtr rsp = node.makeTxPacket(bytes, sim.client->id(),
                                              req->flowId);
            rsp->rpcOp = RpcOp::Resp;
            rsp->rpcKey = req->rpcKey;
            rsp->rpcKvKey = req->rpcKvKey;
            rsp->rpcVersion = ver;
            node.sendPacket(rsp);
            ++sim.res.hostServed;
            --busy;
            trySrv();
        }

        /** Fan a client PUT out to its backup replicas; true if the
         *  reply is now owned by the replication machinery. */
        bool
        startReplication(const PacketPtr &req)
        {
            sim.shard->replicas(req->rpcKvKey, sim.cl.replication,
                                sim.rsScratch);
            PendingRepl pr;
            pr.req = req;
            pr.key = req->rpcKvKey;
            pr.version = req->rpcVersion;
            for (std::uint32_t r : sim.rsScratch)
                if (r != node.id())
                    pr.waiting.push_back(r);
            if (pr.waiting.empty())
                return false;
            std::uint64_t id = ++sim.replIdCtr;
            for (std::uint32_t b : pr.waiting)
                sendReplPut(id, pr.key, pr.version, b);
            pending.emplace(id, std::move(pr));
            armReplRetry(id);
            ++sim.res.hostServed;
            --busy;
            trySrv();
            return true;
        }

        void
        sendReplPut(std::uint64_t id, std::uint64_t key,
                    std::uint64_t version, std::uint32_t backup)
        {
            PacketPtr rp = node.makeTxPacket(
                std::max<std::uint32_t>(sim.p.valueBytes, 64),
                backup, /*flow=*/1);
            rp->rpcOp = RpcOp::ReplPut;
            rp->rpcKey = id;
            rp->rpcKvKey = key;
            rp->rpcVersion = version;
            node.sendPacket(rp);
        }

        /**
         * Retransmit unacked replica writes on a fixed period. A
         * backup that is down drops them on the dead link; the
         * retransmit keeps firing until the backup reboots and
         * accepts (installs are idempotent max-merges), which is what
         * makes the strict-R ack durable across the outage.
         */
        void
        armReplRetry(std::uint64_t id)
        {
            std::uint64_t g = gen;
            sim.eq.scheduleRel(
                replRetryPeriod, [this, id, g] {
                    if (g != gen)
                        return;
                    auto it = pending.find(id);
                    if (it == pending.end())
                        return;
                    ++it->second.tries;
                    // Replication converges once the backup reboots;
                    // an entry spinning this long is a protocol bug.
                    ND_ASSERT(it->second.tries < 4096);
                    for (std::uint32_t b : it->second.waiting)
                        sendReplPut(id, it->second.key,
                                    it->second.version, b);
                    armReplRetry(id);
                });
        }

        void
        onReplAck(const PacketPtr &pkt)
        {
            auto it = pending.find(pkt->rpcKey);
            if (it == pending.end())
                return; // duplicate ack of an already-complete write
            auto &w = it->second.waiting;
            auto f = std::find(w.begin(), w.end(), pkt->srcNode);
            if (f == w.end())
                return;
            w.erase(f);
            if (!w.empty())
                return;
            // Every replica holds the write: ack the client.
            PacketPtr req = it->second.req;
            PacketPtr rsp =
                node.makeTxPacket(64, sim.client->id(), req->flowId);
            rsp->rpcOp = RpcOp::Resp;
            rsp->rpcKey = req->rpcKey;
            rsp->rpcKvKey = it->second.key;
            rsp->rpcVersion = it->second.version;
            node.sendPacket(rsp);
            pending.erase(it);
        }

        void
        installMax(std::uint64_t k, std::uint64_t v)
        {
            auto [it, ins] = store.emplace(k, v);
            if (!ins && v > it->second)
                it->second = v;
        }

        // -- whole-node lifecycle ---------------------------------------

        /** Crash hook: every volatile workload structure dies with
         *  the node (the device/driver state is wiped by
         *  Node::crash() itself). */
        void
        wipe()
        {
            q.clear();
            busy = 0;
            ++gen;
            pending.clear();
            store.clear();
            plan.reset();
            resyncing = false;
            downStart = sim.eq.curTick();
        }

        /** Restart hook: cold boot done, now re-sync shards from the
         *  surviving replicas before rejoining the serve set. */
        void
        beginResync()
        {
            resyncing = true;
            buildPlan();
            if (!plan) {
                rejoin(); // nothing to recover (empty peers)
                return;
            }
            const Tick pace = usToTicks(2);
            std::map<std::uint32_t, std::uint32_t> pos;
            for (std::size_t f = 0; f < plan->frames.size(); ++f)
                scheduleFrameSend(
                    f, Tick(pos[plan->frames[f].src]++ + 1) * pace);
            armNag();
        }

        /**
         * Which (key, version) pairs this node must recover, and from
         * whom: for every key this node replicates, the best holder
         * among serving peers (max version, smallest node id on
         * ties). The merge rule is commutative, so the unordered
         * per-peer store iteration cannot perturb the plan; the plan
         * itself is laid out in key order per source.
         */
        void
        buildPlan()
        {
            std::map<std::uint64_t,
                     std::pair<std::uint64_t, std::uint32_t>>
                want;
            for (auto &o : sim.ctxs) {
                if (o.get() == this || !o->node.alive() ||
                    o->resyncing)
                    continue;
                for (const auto &[k, v] : o->store) {
                    sim.shard->replicas(k, sim.cl.replication,
                                        sim.rsScratch);
                    if (std::find(sim.rsScratch.begin(),
                                  sim.rsScratch.end(),
                                  node.id()) == sim.rsScratch.end())
                        continue;
                    auto [it, ins] = want.emplace(
                        k, std::make_pair(v, o->node.id()));
                    if (!ins &&
                        (v > it->second.first ||
                         (v == it->second.first &&
                          o->node.id() < it->second.second)))
                        it->second = {v, o->node.id()};
                }
            }
            if (want.empty()) {
                plan.reset();
                return;
            }
            auto pl = std::make_unique<SyncPlan>();
            pl->id = ++sim.planIdCtr;
            std::map<std::uint32_t,
                     std::vector<std::pair<std::uint64_t,
                                           std::uint64_t>>>
                bySrc;
            for (const auto &[k, best] : want)
                bySrc[best.second].push_back({k, best.first});
            for (auto &[src, kvs] : bySrc) {
                for (std::size_t o = 0; o < kvs.size();
                     o += syncFrameEntries) {
                    SyncFrame fr;
                    fr.src = src;
                    fr.kv.assign(
                        kvs.begin() + std::ptrdiff_t(o),
                        kvs.begin() +
                            std::ptrdiff_t(std::min(
                                kvs.size(),
                                o + syncFrameEntries)));
                    pl->frames.push_back(std::move(fr));
                }
            }
            pl->remaining = pl->frames.size();
            plan = std::move(pl);
        }

        /** Emit frame @p f from its source node after @p delay: a
         *  real network transfer that pays wire and RX-path time and
         *  can die on a down link. */
        void
        scheduleFrameSend(std::size_t f, Tick delay)
        {
            std::uint64_t pid = plan->id;
            std::uint64_t g = gen;
            sim.eq.scheduleRel(delay, [this, f, pid, g] {
                if (g != gen || !plan || plan->id != pid)
                    return;
                SyncFrame &fr = plan->frames[f];
                if (fr.got)
                    return;
                ServerCtx &src = *sim.ctxs[fr.src - 1];
                if (!src.node.alive())
                    return; // the nag retries once the peer is back
                std::uint32_t bytes = std::max<std::uint32_t>(
                    64, std::uint32_t(fr.kv.size()) *
                            (16 + sim.p.valueBytes));
                PacketPtr pkt =
                    src.node.makeTxPacket(bytes, node.id(), 1);
                pkt->rpcOp = RpcOp::SyncData;
                pkt->rpcKey = pid;
                pkt->rpcVersion = f; // frame index
                src.node.sendPacket(pkt);
            });
        }

        void
        onSyncData(const PacketPtr &pkt)
        {
            if (!resyncing || !plan || pkt->rpcKey != plan->id)
                return;
            std::size_t fi = std::size_t(pkt->rpcVersion);
            if (fi >= plan->frames.size())
                return;
            SyncFrame &fr = plan->frames[fi];
            if (fr.got)
                return;
            fr.got = true;
            for (const auto &[k, v] : fr.kv)
                installMax(k, v);
            node.noteResyncBytes(pkt->bytes);
            if (--plan->remaining == 0) {
                plan.reset();
                rejoin();
            }
        }

        /** Receiver-side watchdog: re-request frames still missing
         *  (lost to a link drop or a not-yet-rebooted source). */
        void
        armNag()
        {
            std::uint64_t pid = plan->id;
            std::uint64_t g = gen;
            sim.eq.scheduleRel(usToTicks(50), [this, pid, g] {
                if (g != gen || !plan || plan->id != pid)
                    return;
                ++plan->nags;
                ND_ASSERT(plan->nags < 512);
                const Tick pace = usToTicks(2);
                Tick off = 0;
                for (std::size_t f = 0; f < plan->frames.size(); ++f)
                    if (!plan->frames[f].got)
                        scheduleFrameSend(f, off += pace);
                armNag();
            });
        }

        /** Re-sync complete: back into the serve set. On the handler
         *  placement this is also where the served ops return -- a
         *  resyncing node must not serve stale GETs from its wimpy
         *  cores. */
        void
        rejoin()
        {
            resyncing = false;
            downTicks += sim.eq.curTick() - downStart;
            if (sim.offload)
                sim.serveKvOps(node);
        }
    };

    /** Client bookkeeping for one request, across retries/hedges. */
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

    struct AckedWrite
    {
        std::uint64_t version = 0;
        Tick at = 0;
    };

    // -- client-side machinery ------------------------------------------
    void fire();
    void sendReq(std::uint64_t key, Flight &f);
    void routeFlight(Flight &f);
    void armTimeout(std::uint64_t key, std::uint32_t send_no);
    void armHedge(std::uint64_t key);
    void onReply(const PacketPtr &pkt, Tick now);
    bool clusterHealthy() const;
    void serveKvOps(Node &n) const;

    // -- configuration / fixed geometry ---------------------------------
    ServingParams p;
    ClusterServingParams cl;
    SystemConfig cfg;
    bool offload = false;
    std::uint32_t valueStride = 0;
    std::uint32_t slotsPerPage = 0;
    std::uint32_t linesPerPage = 0;
    std::uint64_t total = 0;
    double meanGapTicks = 0.0;
    Tick baseTimeout = 0;
    Tick span = 0;

    // -- simulated system (declaration order = reverse teardown) --------
    EventQueue eq;
    std::unique_ptr<Node> client;
    std::vector<std::unique_ptr<Node>> serverNodes;
    std::unique_ptr<EthLink> directLink;
    std::unique_ptr<Switch> sw;
    std::vector<std::unique_ptr<EthLink>> links;
    std::unique_ptr<ShardMap> shard;
    std::vector<std::unique_ptr<ServerCtx>> ctxs;
    std::vector<std::unique_ptr<NodeLifecycle>> lifecycles;
    std::unique_ptr<MemLatencyProbe> probe;
    std::unique_ptr<MlcInjector> mlc;

    // -- client state ----------------------------------------------------
    ServingResult res;
    std::unordered_map<std::uint64_t, Flight> inFlight;
    std::vector<std::uint8_t> doneFlags;
    std::unordered_map<std::uint32_t, Tick> suspectUntil;
    std::unordered_map<std::uint64_t, AckedWrite> acked;
    std::uint64_t versionCtr = 0;
    std::uint64_t replIdCtr = 0;
    std::uint64_t planIdCtr = 0;
    std::vector<std::uint32_t> rsScratch;
    Random arrivals;
    Random ops;
    Random kvKeys;
    FaultDomain retryJitter;
};

ServingSim::ServingSim(const SystemConfig &base,
                       const ServingParams &params)
    : p(params), cl(params.cluster), cfg(base),
      arrivals(base.seed ^ 0x5E12F1A6ull),
      ops(base.seed ^ 0x0A9B3C5Dull),
      kvKeys(base.seed ^ 0x7C3A1B2Eull),
      retryJitter("rpc.retry", base.seed)
{
    ND_ASSERT(p.qps > 0 && p.valueBytes >= 1 &&
              p.valueBytes <= pageBytes);
    ND_ASSERT(cl.nodes >= 1 && cl.replication >= 1 &&
              cl.replication <= cl.nodes);

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

    total = p.requests + p.warmup;
    meanGapTicks = double(tickPerSec) / p.qps;
    baseTimeout = p.retryTimeout   ? p.retryTimeout
                  : p.deadline     ? 2 * p.deadline
                                   : usToTicks(20);
    span = Tick(double(total) / p.qps * tickPerSec);

    // -- topology -------------------------------------------------------
    client = std::make_unique<Node>(eq, "client", cfg, 0);
    for (std::uint32_t i = 0; i < cl.nodes; ++i) {
        // Built with append(): GCC 12 flags both assign-then-append
        // (under ASan) and "s" + string (at -O3) with a false
        // -Werror=restrict overlap here.
        std::string name =
            cl.nodes > 1 ? std::string("s").append(std::to_string(i + 1))
                         : std::string("server");
        serverNodes.push_back(
            std::make_unique<Node>(eq, name, cfg, i + 1));
    }
    if (cl.nodes == 1) {
        // One server needs no switch: a direct link, no extra hop.
        directLink = std::make_unique<EthLink>(eq, "link", cfg.eth);
        connectNodes(*directLink, *client, *serverNodes[0]);
    } else {
        sw = std::make_unique<Switch>(eq, "sw", cfg.eth);
        auto wire = [this](Node &n) {
            auto link = std::make_unique<EthLink>(
                eq, n.name() + ".l", cfg.eth);
            link->connect(sw.get(), n.endpoint());
            n.connectTo(*link);
            sw->addRoute(n.id(), link.get());
            links.push_back(std::move(link));
        };
        wire(*client);
        for (auto &sn : serverNodes)
            wire(*sn);
    }

    offload = p.placement == ServingPlacement::NetDimmHandlers &&
              !p.emptyMatchTable;
    for (auto &sn : serverNodes) {
        if (!offload)
            break;
        Node *n = sn.get();
        std::uint32_t vb = p.valueBytes;
        auto configure = [n, vb] {
            HandlerStage *hs = n->netdimm()->handlers();
            ND_ASSERT(hs);
            hs->configureKv(/*buckets=*/1u << 14, /*slots=*/1u << 14,
                            vb);
        };
        configure();
        serveKvOps(*n);
        // Cold boot replays the device-side KV setup; the served ops
        // wait for rejoin() so a resyncing node cannot serve.
        n->setColdBootHook(configure);
    }

    const std::uint32_t stride =
        (p.valueBytes + cachelineBytes - 1) / cachelineBytes *
        cachelineBytes;
    valueStride = stride;
    slotsPerPage = pageBytes / stride;
    linesPerPage = pageBytes / cachelineBytes;

    std::vector<std::uint32_t> ids;
    ids.reserve(cl.nodes);
    for (auto &sn : serverNodes)
        ids.push_back(sn->id());
    shard = std::make_unique<ShardMap>(std::move(ids), ringPointsPerNode);

    for (auto &sn : serverNodes)
        ctxs.push_back(std::make_unique<ServerCtx>(*this, *sn));

    // -- whole-node crash/restart schedules -----------------------------
    if (cl.crashRatePerSec > 0) {
        for (std::uint32_t i = 0; i < cl.nodes; ++i) {
            Node *n = serverNodes[i].get();
            FaultDomain &dom =
                n->faults()->domain(n->name() + ".crash");
            NodeLifecycle::Params lp;
            lp.crashRatePerSec = cl.crashRatePerSec;
            lp.restartDelay = cl.restartDelay;
            lp.windowEnd = span;
            lifecycles.push_back(std::make_unique<NodeLifecycle>(
                eq, *n, dom, lp));
            NodeLifecycle *life = lifecycles.back().get();
            ServerCtx *ctx = ctxs[i].get();
            // At most one node down or resyncing at a time: the
            // precondition of the R>=2 zero-lost-acked-writes
            // argument (a write always has a surviving replica, and
            // the survivor completes the resync before it may die).
            life->setGate([this] { return clusterHealthy(); });
            life->setOnCrash([ctx] { ctx->wipe(); });
            life->setOnRestart([ctx] { ctx->beginResync(); });
        }
    }

    for (auto &c : ctxs) {
        ServerCtx *cp = c.get();
        cp->node.setReceiveHandler(
            [cp](const PacketPtr &pkt, Tick) { cp->onRx(pkt); });
    }
    client->setReceiveHandler(
        [this](const PacketPtr &pkt, Tick now) { onReply(pkt, now); });

    doneFlags.assign(std::size_t(total) + 1, 0);
    inFlight.reserve(256);
}

bool
ServingSim::clusterHealthy() const
{
    for (const auto &l : lifecycles)
        if (l->down())
            return false;
    for (const auto &c : ctxs)
        if (c->resyncing)
            return false;
    return true;
}

/** Serve KV ops on @p n's handler stage. A PUT reaches
 *  the wimpy cores only when it needs no coordinator: a write with
 *  backups carries a version and a replication fan-out, which stay on
 *  the host path. */
void
ServingSim::serveKvOps(Node &n) const
{
    HandlerStage *hs = n.netdimm()->handlers();
    ND_ASSERT(hs);
    hs->serve(RpcOp::Get);
    if (cl.replication == 1)
        hs->serve(RpcOp::Put);
}

void
ServingSim::routeFlight(Flight &f)
{
    shard->replicas(f.kvKey, cl.replication, rsScratch);
    Tick now = eq.curTick();
    std::uint32_t n = std::uint32_t(rsScratch.size());
    // First unsuspected replica clockwise of the failover cursor;
    // all-suspected falls back to the cursor itself (a retry storm
    // must still send somewhere).
    std::uint32_t pick = rsScratch[f.rsOffset % n];
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t cand = rsScratch[(f.rsOffset + i) % n];
        auto su = suspectUntil.find(cand);
        if (su == suspectUntil.end() || su->second <= now) {
            pick = cand;
            break;
        }
    }
    f.target = pick;
    if (pick != rsScratch[0])
        client->noteFailoverRedirect();
}

void
ServingSim::sendReq(std::uint64_t key, Flight &f)
{
    routeFlight(f);
    std::uint32_t bytes =
        f.get ? 64 : std::max<std::uint32_t>(p.valueBytes, 64);
    PacketPtr req = client->makeTxPacket(bytes, f.target, /*flow=*/1);
    req->rpcOp = f.get ? RpcOp::Get : RpcOp::Put;
    req->rpcKey = key;
    req->rpcDeadline = f.deadline;
    req->rpcKvKey = f.kvKey;
    req->rpcVersion = f.version;
    client->sendPacket(req);
}

// Timeout for send #send_no (1-based): exponential backoff with
// deterministic +/- jitter. Stale firings (reply arrived, or a newer
// send took over) are no-ops.
void
ServingSim::armTimeout(std::uint64_t key, std::uint32_t send_no)
{
    double j =
        1.0 + backoffJitter * (2.0 * retryJitter.uniform() - 1.0);
    Tick to = Tick(double(baseTimeout << (send_no - 1)) * j);
    eq.scheduleRel(to, [this, key, send_no] {
        auto it = inFlight.find(key);
        if (it == inFlight.end() || it->second.sends != send_no)
            return;
        ++res.timeouts;
        // Failure detection IS the timeout: suspect whoever we were
        // waiting on and advance the failover cursor, so the next
        // send lands on a different replica.
        suspectUntil[it->second.target] = eq.curTick() + suspectTicks;
        ++it->second.rsOffset;
        // Deadline-aware retry: resending a request whose deadline
        // already passed only amplifies overload (the retry is shed
        // server-side anyway), so a dead request is abandoned instead
        // -- the anti-retry-storm half of the retry policy.
        if (it->second.sends <= p.maxRetries &&
            (it->second.deadline == 0 ||
             eq.curTick() < it->second.deadline)) {
            ++it->second.sends;
            ++res.retries;
            sendReq(key, it->second);
            armTimeout(key, it->second.sends);
        } else {
            ++res.abandoned;
            inFlight.erase(it);
        }
    });
}

// Hedge: race a duplicate once the request has been outstanding
// longer than the running p99 (tail-at-scale); first reply wins, the
// loser's reply is dropped by the duplicate check.
void
ServingSim::armHedge(std::uint64_t key)
{
    Tick delay = p.hedgeFloor;
    if (res.rtt.count() >= 50)
        delay = std::max(delay, Tick(res.rtt.percentile(0.99)));
    eq.scheduleRel(delay, [this, key] {
        auto it = inFlight.find(key);
        if (it == inFlight.end() || it->second.hedged)
            return;
        it->second.hedged = true;
        ++res.hedges;
        sendReq(key, it->second);
    });
}

void
ServingSim::fire()
{
    if (res.sent >= total)
        return;
    std::uint64_t key = ++res.sent; // rpcKey = 1-based send index
    bool get = ops.uniformDouble() < p.getFraction;
    // Traffic targets a logical key space; versions are client-assigned
    // and monotone, so replica install-if-newer resolves every duplicate
    // and reordering. The key draw comes from a stream nothing else
    // consumes.
    std::uint64_t kvKey = kvKeys.uniformInt(1, clusterKeyCount);
    std::uint64_t version = get ? 0 : ++versionCtr;
    Tick now = eq.curTick();
    Flight f;
    f.firstSend = now;
    f.deadline = p.deadline ? now + p.deadline : 0;
    f.sends = 1;
    f.get = get;
    f.kvKey = kvKey;
    f.version = version;
    auto it = inFlight.emplace(key, f).first;
    sendReq(key, it->second);
    if (p.maxRetries > 0)
        armTimeout(key, 1);
    if (p.hedge)
        armHedge(key);
    eq.scheduleRel(Tick(arrivals.exponential(meanGapTicks)),
                   [this] { fire(); });
}

void
ServingSim::onReply(const PacketPtr &pkt, Tick now)
{
    if (pkt->rpcOp != RpcOp::Resp)
        return;
    auto it = inFlight.find(pkt->rpcKey);
    if (it == inFlight.end()) {
        // Sequence check: a key already answered once (retry raced
        // the original, or a failed-over request was served by both
        // the suspected node and its replacement) is counted exactly
        // once; the duplicate is dropped here.
        if (pkt->rpcKey >= 1 && pkt->rpcKey <= total &&
            doneFlags[std::size_t(pkt->rpcKey)])
            ++res.duplicateReplies;
        return;
    }
    ++res.completed;
    if (pkt->rpcKey > p.warmup) {
        res.rtt.sample(now - it->second.firstSend);
        if (it->second.deadline == 0 || now <= it->second.deadline)
            ++res.goodRpcs;
    }
    // Only versioned replies touch the ledger. Version 0 is a
    // handler-served reply (the wimpy cores keep their own device KV,
    // outside the replicated store) or a GET of a never-written key.
    if (pkt->rpcVersion > 0) {
        if (!it->second.get) {
            // Acked-write ledger: the durability obligation the
            // end-of-run audit checks against surviving replicas.
            AckedWrite &a = acked[it->second.kvKey];
            if (it->second.version > a.version) {
                a.version = it->second.version;
                a.at = now;
            }
        } else {
            // Read-your-writes staleness: a GET *issued after* a
            // write of this key was acked must not return an older
            // version.
            auto a = acked.find(it->second.kvKey);
            if (a != acked.end() &&
                pkt->rpcVersion < a->second.version &&
                it->second.firstSend >= a->second.at)
                client->noteStaleRead();
        }
    }
    doneFlags[std::size_t(pkt->rpcKey)] = 1;
    inFlight.erase(it);
}

ServingResult
ServingSim::run()
{
    // -- interference co-runners over the NetDIMM window ---------------
    // Both run the middle 60% of the cell so ramp-up and drain don't
    // dilute the contention signal; the stop events bound their event
    // chains, so the queue still drains. Pages sit in the middle of
    // the local DRAM: above the rings and RX buffers at the bottom,
    // below the handler KV carve at the top. No warm-up on purpose --
    // the cold LLC makes essentially every access a local-MC round
    // trip, which is the contention being measured.
    Node &server = *serverNodes[0];
    if (p.probe && server.netdimm()) {
        NetDimmDevice *nd = server.netdimm();
        std::vector<Addr> pages;
        pages.reserve(probeSetPages);
        Addr first = nd->regionBase() + nd->localBytes() / 4;
        for (std::uint32_t i = 0; i < probeSetPages; ++i)
            pages.push_back(first + Addr(i) * pageBytes);
        probe = std::make_unique<MemLatencyProbe>(
            eq, "probe", server, std::move(pages),
            nsToTicks(probeThinkTimeNs));
        MemLatencyProbe *pr = probe.get();
        eq.schedule(span / 5, [pr] {
            pr->start();
            pr->resetStats();
        });
        eq.schedule(span * 4 / 5, [pr] { pr->stop(); });
    }
    if (p.mlc && server.netdimm()) {
        NetDimmDevice *nd = server.netdimm();
        std::vector<Addr> pages;
        pages.reserve(2 * std::size_t(mlcStreamPages));
        Addr first = nd->regionBase() + nd->localBytes() / 2;
        for (std::uint32_t i = 0; i < 2 * mlcStreamPages; ++i)
            pages.push_back(first + Addr(i) * pageBytes);
        mlc = std::make_unique<MlcInjector>(
            eq, "mlc", server, /*inject_delay=*/0, std::move(pages),
            /*max_outstanding=*/64);
        MlcInjector *inj = mlc.get();
        eq.schedule(span / 5, [inj] { inj->start(); });
        // Snapshot achieved bandwidth at stop time, while the window
        // is still the denominator.
        ServingResult *r = &res;
        eq.schedule(span * 4 / 5, [inj, r] {
            r->mlcGBps = inj->achievedGBps();
            inj->stop();
        });
    }

    for (auto &l : lifecycles)
        l->start();
    fire();
    eq.run();

    if (probe) {
        res.probeMeanNs = probe->meanLatencyNs();
        res.probeAccesses = probe->accesses();
    }

    res.lost = res.sent - res.completed;
    res.simulatedUs = ticksToUs(eq.curTick());
    res.events = eq.executedEvents();
    for (std::size_t i = 0; i < serverNodes.size(); ++i) {
        Node &sn = *serverNodes[i];
        if (NetDimmDevice *nd = sn.netdimm()) {
            if (i == 0)
                res.handlerBusFraction =
                    nd->localMc().handlerBusFraction();
            if (HandlerStage *hs = nd->handlers()) {
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
        }
        if (const FaultRegistry *reg = sn.faults()) {
            res.faultsInjected += reg->injected();
            res.faultsRecovered += reg->recovered();
            res.faultsUnrecovered += reg->unrecovered();
            res.ledgerClosed = res.ledgerClosed && reg->ledgerClosed();
        }
        res.crashes += sn.crashesInjected();
        res.restarts += sn.restarts();
        res.resyncBytes += sn.resyncBytes();
    }
    res.failoverRedirects = client->failoverRedirects();
    res.staleReads = client->staleReads();

    Tick totalDown = 0;
    for (auto &c : ctxs) {
        Tick d = c->downTicks;
        if (!c->node.alive() || c->resyncing)
            d += eq.curTick() - c->downStart; // still open
        totalDown += d;
    }
    if (span > 0)
        res.deadFraction = double(totalDown) /
                           (double(cl.nodes) * double(span));

    // Durability audit: every acknowledged write must still be held,
    // at its acked version or newer, by at least one member of its
    // replica set.
    res.ackedPuts = acked.size();
    for (const auto &[k, a] : acked) {
        shard->replicas(k, cl.replication, rsScratch);
        bool held = false;
        for (std::uint32_t id : rsScratch) {
            const auto &st = ctxs[id - 1]->store;
            auto f = st.find(k);
            if (f != st.end() && f->second >= a.version) {
                held = true;
                break;
            }
        }
        if (!held)
            ++res.lostAckedWrites;
    }
    return res;
}

} // namespace

ServingResult
runServing(const SystemConfig &base, const ServingParams &p)
{
    ServingSim sim(base, p);
    return sim.run();
}

} // namespace netdimm
