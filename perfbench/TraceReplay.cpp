/**
 * @file
 * trace-replay: Fig. 12(a)-style one-way raw-frame replay of the
 * database, webserver and hadoop mixes through dNIC, iNIC and NetDIMM
 * node pairs over a ClosFabric with 50 ns switches. The per-packet
 * TX/RX path: kernel, nic/pcie, netdimm/nvdimm, cache, the host-only
 * memory-controller path and the event core do the work.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "BenchMath.hh"
#include "Workload.hh"
#include "harness/LatencyHistogram.hh"
#include "kernel/Node.hh"
#include "sim/Logging.hh"
#include "workload/TraceGen.hh"

using namespace netdimm;

namespace perfbench
{

namespace
{

/** Frames per cluster trace; every (cluster, kind) pair replays it. */
constexpr int kFrames = 6000;
constexpr double kOfferedGbps = 5.0;
constexpr double kSwitchNs = 50.0;

const ClusterType kClusters[] = {ClusterType::Database,
                                 ClusterType::Webserver,
                                 ClusterType::Hadoop};
const NicKind kKinds[] = {NicKind::Discrete, NicKind::Integrated,
                          NicKind::NetDimm};
const char *const kKindNames[] = {"dnic", "inic", "netdimm"};
const char *const kCompNames[] = {"tx_copy", "tx_flush", "io_reg",
                                  "tx_dma",  "wire",     "rx_dma",
                                  "rx_invalidate", "rx_copy"};

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

/** Post-warmup results of one NIC kind across all clusters. */
struct KindResult
{
    LatencyHistogram hist;
    std::array<double, numLatComps> compTicks{};
    std::array<double, 3> clusterMeanTicks{};
};

/** Model counters summed over every node of one rep. */
struct Counters
{
    std::uint64_t ncHits = 0, ncMisses = 0, ncEvictions = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t fpm = 0, psm = 0, gcm = 0, cloneFailed = 0;
    std::uint64_t localHits = 0, localMisses = 0;
    double localReadNs = 0.0, localBusUtil = 0.0;
    std::uint32_t localMcs = 0;
    std::uint64_t hostHits = 0, hostMisses = 0;
    std::uint64_t copyBytes = 0;
    std::uint64_t llcHits = 0, llcMisses = 0;
    std::uint64_t ddioInserts = 0, ddioLeaks = 0;
    std::uint64_t tlps = 0, pcieBytes = 0;
};

class TraceReplay : public Workload
{
  public:
    RepResult rep(std::uint64_t seed, Tracer *tracer) override;
    void finish(std::uint64_t seed, Values &sim,
                std::vector<std::string> &failures) override;
    void describe(const Values &sim) const override;

  private:
    std::array<KindResult, 3> _kinds;
    Counters _c;

    void replay(const std::vector<TraceRecord> &trace, std::size_t ci,
                std::size_t ki, std::uint64_t seed, Tracer *tracer,
                RepResult &r);
    void collect(Node &n);
};

void
TraceReplay::collect(Node &n)
{
    for (std::uint32_t i = 0; i < n.mem().numChannels(); ++i) {
        _c.hostHits += n.mem().channel(i).rowHits();
        _c.hostMisses += n.mem().channel(i).rowMisses();
    }
    _c.copyBytes += n.copyEngine().bytesCopied();
    _c.llcHits += n.llc().hits();
    _c.llcMisses += n.llc().misses();
    _c.ddioInserts += n.llc().ddioInserts();
    _c.ddioLeaks += n.llc().ddioLeaks();
    if (PcieLink *p = n.pcie()) {
        _c.tlps += p->tlpsSent();
        _c.pcieBytes += p->payloadBytes();
    }
    if (NetDimmDevice *d = n.netdimm()) {
        _c.ncHits += d->ncache().hits();
        _c.ncMisses += d->ncache().misses();
        _c.ncEvictions += d->ncache().evictions();
        _c.prefetches += d->prefetchesIssued();
        _c.fpm += d->rowCloneEngine().fpmClones();
        _c.psm += d->rowCloneEngine().psmClones();
        _c.gcm += d->rowCloneEngine().gcmClones();
        _c.cloneFailed += d->rowCloneEngine().failedClones();
        _c.localHits += d->localMc().rowHits();
        _c.localMisses += d->localMc().rowMisses();
        _c.localReadNs += d->localMc().meanReadLatencyNs();
        _c.localBusUtil += d->localMc().busUtilization();
        ++_c.localMcs;
    }
}

/** Frames a node dropped on its own TX/RX path. */
std::uint64_t
nodeDrops(Node &n)
{
    std::uint64_t d = n.driver().skbsDroppedOnReset();
    if (NicDevice *nic = n.nic())
        d += nic->rxDrops() + nic->txDmaDrops();
    if (NetDimmDevice *nd = n.netdimm())
        d += nd->rxDrops() + nd->txDmaDrops() + nd->txPoisonDrops();
    return d;
}

void
TraceReplay::replay(const std::vector<TraceRecord> &trace,
                    std::size_t ci, std::size_t ki, std::uint64_t seed,
                    Tracer *tracer, RepResult &r)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();

    SystemConfig cfg;
    cfg.nic = kKinds[ki];
    cfg.eth.switchLatency = nsToTicks(kSwitchNs);
    cfg.seed = seed;

    auto eq = std::make_unique<EventQueue>();
    std::unique_ptr<Node> tx, rx;
    std::unique_ptr<ClosFabric> fabric;
    {
        ScopedSpan s(tracer, "Node", Layer::Kernel);
        tx = std::make_unique<Node>(*eq, "tx", cfg, 0);
        rx = std::make_unique<Node>(*eq, "rx", cfg, 1);
    }
    {
        ScopedSpan s(tracer, "ClosFabric", Layer::Net);
        fabric = std::make_unique<ClosFabric>(*eq, "fabric", cfg.eth);
        fabric->attach(0, tx->endpoint());
        fabric->attach(1, rx->endpoint());
    }

    // Locality of each frame, by packet id (ids are dense per queue).
    std::vector<TrafficLocality> locality;
    locality.reserve(trace.size() + 16);
    ClosFabric *fab = fabric.get();
    tx->setWire([fab, &locality, tracer](const PacketPtr &pkt) {
        TrafficLocality loc = pkt->id < locality.size()
                                  ? locality[pkt->id]
                                  : TrafficLocality::IntraCluster;
        ScopedSpan s(tracer, "ClosFabric::forward", Layer::Net, pkt->id);
        fab->forward(pkt, loc);
    });
    rx->setWire([fab, tracer](const PacketPtr &pkt) {
        ScopedSpan s(tracer, "ClosFabric::forward", Layer::Net, pkt->id);
        fab->forward(pkt, TrafficLocality::IntraCluster);
    });

    KindResult &kr = _kinds[ki];
    const std::uint64_t warmup = trace.size() / 10;
    std::uint64_t seen = 0, sent = 0;
    double sumTicks = 0.0;
    std::uint64_t measured = 0;
    rx->setReceiveHandler([&, tracer](const PacketPtr &pkt, Tick) {
        ScopedSpan s(tracer, "rx.handler", Layer::Workload, pkt->id);
        if (seen++ < warmup)
            return;
        Tick ow = pkt->oneWayLatency();
        kr.hist.sample(ow);
        sumTicks += double(ow);
        ++measured;
        for (std::size_t c = 0; c < numLatComps; ++c)
            kr.compTicks[c] += double(pkt->lat.comp[c]);
    });

    Node *txp = tx.get();
    std::uint32_t rxId = rx->id();
    Tick t = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord &rec = trace[i];
        t += rec.interArrival;
        eq->schedule(t, [txp, rxId, &locality, &sent, rec, i, tracer] {
            PacketPtr pkt;
            {
                ScopedSpan s(tracer, "Node::makeTxPacket", Layer::Kernel);
                pkt = txp->makeTxPacket(rec.bytes, rxId, 1 + (i % 8));
                s.setId(pkt->id);
            }
            if (pkt->id >= locality.size())
                locality.resize(pkt->id + 1,
                                TrafficLocality::IntraCluster);
            locality[pkt->id] = rec.locality;
            ++sent;
            ScopedSpan s(tracer, "Node::sendPacket", Layer::Kernel,
                         pkt->id);
            txp->sendPacket(pkt);
        });
    }
    auto t1 = clock::now();
    double cpu0 = processCpuSeconds();
    {
        ScopedSpan s(tracer, "EventQueue::run", Layer::Sim);
        eq->run();
    }
    double cpu1 = processCpuSeconds();
    auto t2 = clock::now();

    r.setupS += seconds(t0, t1);
    r.wallParts.push_back(seconds(t1, t2));
    r.cpuParts.push_back(cpu1 - cpu0);
    r.events += eq->executedEvents();

    std::uint64_t drops = nodeDrops(*tx) + nodeDrops(*rx) +
                          fabric->dropsNoRoute();
    r.attempted += sent;
    r.failed += sent - std::min(sent, seen);
    if (sent != seen + drops) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "trace-replay %s/%s: sent %llu != rcvd %llu + "
                      "drops %llu",
                      clusterName(kClusters[ci]), kKindNames[ki],
                      (unsigned long long)sent, (unsigned long long)seen,
                      (unsigned long long)drops);
        r.checkFailures.push_back(msg);
    }
    kr.clusterMeanTicks[ci] = measured ? sumTicks / double(measured) : 0.0;
    collect(*tx);
    collect(*rx);
}

RepResult
TraceReplay::rep(std::uint64_t seed, Tracer *tracer)
{
    for (KindResult &k : _kinds)
        k = KindResult();
    _c = {};
    RepResult r;
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::vector<TraceRecord>> traces;
    {
        ScopedSpan s(tracer, "synthesizeClusterTraces", Layer::Workload);
        traces = synthesizeClusterTraces(
            {std::begin(kClusters), std::end(kClusters)}, kOfferedGbps,
            seed, kFrames);
    }
    r.setupS += seconds(t0, std::chrono::steady_clock::now());
    for (std::size_t ci = 0; ci < 3; ++ci)
        for (std::size_t ki = 0; ki < 3; ++ki)
            replay(traces[ci], ci, ki, seed, tracer, r);
    for (std::size_t ki = 0; ki < 3; ++ki)
        r.digests.push_back(
            {std::string("oneway.") + kKindNames[ki],
             _kinds[ki].hist.digest()});
    return r;
}

void
TraceReplay::finish(std::uint64_t, Values &v, std::vector<std::string> &)
{
    const LatencyHistogram &nd = _kinds[2].hist;
    double p50 = nd.percentile(0.50) / double(tickPerUs);
    double p99 = nd.percentile(0.99) / double(tickPerUs);
    v["sim_p50_us"] = p50;
    v["sim_p99_us"] = p99;
    v["sim.lat_n"] = double(nd.count());
    v["netdimm_oneway_p50_us"] = p50;
    v["netdimm_oneway_p99_us"] = p99;

    // Fig. 12(a) headline: per-cluster mean reduction, averaged.
    double vsD = 0.0, vsI = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
        double d = _kinds[0].clusterMeanTicks[c];
        double i = _kinds[1].clusterMeanTicks[c];
        double n = _kinds[2].clusterMeanTicks[c];
        vsD += d > 0 ? 100.0 * (1.0 - n / d) / 3.0 : 0.0;
        vsI += i > 0 ? 100.0 * (1.0 - n / i) / 3.0 : 0.0;
    }
    v["netdimm_vs_dnic_pct"] = vsD;
    v["netdimm_vs_inic_pct"] = vsI;

    for (std::size_t k = 0; k < 3; ++k) {
        double n = double(_kinds[k].hist.count());
        for (std::size_t c = 0; c < numLatComps; ++c)
            v[std::string("lat.") + kKindNames[k] + "." + kCompNames[c] +
              "_ns"] = n > 0 ? _kinds[k].compTicks[c] / n /
                                   double(tickPerNs)
                             : 0.0;
    }

    v["netdimm.ncache_hit_ratio"] =
        ratio(_c.ncHits, _c.ncHits + _c.ncMisses);
    v["netdimm.prefetches"] = double(_c.prefetches);
    v["netdimm.ncache_evictions"] = double(_c.ncEvictions);
    v["mem.rowclone_fpm"] = double(_c.fpm);
    v["mem.rowclone_psm"] = double(_c.psm);
    v["mem.rowclone_gcm"] = double(_c.gcm);
    v["mem.rowclone_failed"] = double(_c.cloneFailed);
    v["mem.local_row_hit_ratio"] =
        ratio(_c.localHits, _c.localHits + _c.localMisses);
    v["mem.local_read_ns"] =
        _c.localMcs ? _c.localReadNs / _c.localMcs : 0.0;
    v["mem.local_bus_util"] =
        _c.localMcs ? _c.localBusUtil / _c.localMcs : 0.0;
    v["mem.host_row_hit_ratio"] =
        ratio(_c.hostHits, _c.hostHits + _c.hostMisses);
    v["kernel.copy_bytes"] = double(_c.copyBytes);
    v["cache.llc_hit_ratio"] = ratio(_c.llcHits, _c.llcHits + _c.llcMisses);
    v["cache.ddio_inserts"] = double(_c.ddioInserts);
    v["cache.ddio_leaks"] = double(_c.ddioLeaks);
    v["pcie.tlps"] = double(_c.tlps);
    v["pcie.payload_bytes"] = double(_c.pcieBytes);
}

void
TraceReplay::describe(const Values &v) const
{
    std::printf("trace-replay: %d frames x 3 clusters x {dNIC, iNIC, "
                "NetDIMM}, %.0f ns switches, %.0f Gbps offered\n",
                kFrames, kSwitchNs, kOfferedGbps);
    std::printf("  netdimm_oneway_p50_us %.4f us  netdimm_oneway_p99_us "
                "%.4f us  (n=%.0f)\n",
                v.at("netdimm_oneway_p50_us"),
                v.at("netdimm_oneway_p99_us"), v.at("sim.lat_n"));
    std::printf("  netdimm_vs_dnic_pct %.3f %%  netdimm_vs_inic_pct "
                "%.3f %%  (per-cluster mean one-way, averaged)\n",
                v.at("netdimm_vs_dnic_pct"), v.at("netdimm_vs_inic_pct"));
}

} // namespace

std::unique_ptr<Workload>
makeTraceReplay()
{
    return std::make_unique<TraceReplay>();
}

} // namespace perfbench
