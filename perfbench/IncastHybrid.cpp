/**
 * @file
 * incast-hybrid: 1024 DCQCN bulk senders into one 40 Gbps bottleneck
 * at one overload point, at hybrid fidelity. Every 8th flow is a
 * packet-level witness (TransportFlow); the rest are FluidSolver
 * flows whose backlog the switch and bottleneck see as background
 * load. Mid-run a few fluid flows are promoted to packet level and
 * later demoted again, so the handoff path runs too. A probe stream
 * of raw MTU frames measures one-way latency through the bottleneck;
 * its p99 is compared with a packet-level reference run of the same
 * inputs, computed once per run outside the timed repetitions.
 *
 * The hybrid probe tail is multi-modal: a different probe phase or
 * handoff set can lock the fluid/packet oscillation into a mode whose
 * p99 is 30% higher (NOTES.md). A rep therefore runs kPhases
 * independent draws and reports the median of their percentiles.
 *
 * The scenario follows bench/hybrid_fidelity (same dumbbell, DCQCN
 * scaling, warm start and evenly staggered flow starts); the seed
 * sets each draw's probe phase and which fluid flows take the
 * promote/demote round trip.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "BenchMath.hh"
#include "Workload.hh"
#include "flow/FidelityManager.hh"
#include "harness/LatencyHistogram.hh"
#include "net/Switch.hh"

using namespace netdimm;

namespace perfbench
{

namespace
{

constexpr std::uint64_t kProbeFlow = ~std::uint64_t(0);
/** Independent hybrid draws per rep. */
constexpr std::uint32_t kPhases = 5;

Tick
msTicks(double ms)
{
    return usToTicks(ms * 1000.0);
}

struct Knobs
{
    std::uint32_t nodes = 1024;
    std::uint32_t segBytes = 1460;
    std::uint32_t witnessEvery = 8;
    double load = 2.5;
    Tick warmup = msTicks(5);
    Tick horizon = msTicks(200);
    /** Probes stop this long before the horizon so every probe sent
     *  drains (the bottleneck queue is lossless). */
    Tick probeDrain = msTicks(5);
    Tick startSpread = usToTicks(500);
    Tick probeGap = usToTicks(7);
    /** Fluid flows taking the promote (at promoteAt) / demote (at
     *  demoteAt) round trip. */
    std::uint32_t handoffFlows = 8;
    Tick promoteAt = msTicks(30);
    Tick demoteAt = msTicks(60);
    EthConfig eth;
    TransportConfig tcfg;

    Knobs()
    {
        // Lossless ECN regime and DCQCN scaled to the ~39 Mbps fair
        // share, as in bench/hybrid_fidelity.
        eth.switchQueueFrames = 0;
        eth.ecnThresholdFrames = 128;
        tcfg.minRateGbps = 0.004;
        tcfg.additiveIncreaseGbps = 0.0005;
        tcfg.hyperIncreaseGbps = 0.002;
    }

    double demandGbps() const { return load * eth.gbps / nodes; }
    std::uint64_t
    volumePerFlow() const
    {
        double bytes = demandGbps() / 8000.0 * double(horizon);
        return std::uint64_t(bytes * 2.0) + tcfg.segmentBytes;
    }
};

/** Generated inputs of one run: flow start ticks, plus a probe phase
 *  and handoff flow ids drawn from @p stream. */
struct Inputs
{
    std::vector<Tick> start;
    Tick probeFirst = 0;
    std::vector<std::uint64_t> handoff;

    Inputs(const Knobs &k, std::uint64_t stream)
    {
        Tick slot = k.startSpread / k.nodes;
        for (std::uint32_t i = 0; i < k.nodes; ++i)
            start.push_back(slot * i);
        probeFirst = usToTicks(1) + mix64(~stream) % k.probeGap;
        std::uint64_t h = mix64(stream ^ 0x5eed);
        while (handoff.size() < k.handoffFlows) {
            h = mix64(h);
            std::uint64_t id = 1 + h % k.nodes;
            if (id % k.witnessEvery != 0 &&
                std::find(handoff.begin(), handoff.end(), id) ==
                    handoff.end())
                handoff.push_back(id);
        }
    }
};

struct SenderEp : NetEndpoint
{
    TransportFlow *flow = nullptr;
    void
    deliver(const PacketPtr &pkt) override
    {
        if (flow)
            flow->onSenderReceive(pkt);
    }
};

struct SinkEp : NetEndpoint
{
    EventQueue *eq = nullptr;
    Tick measureFrom = 0;
    std::map<std::uint64_t, TransportFlow *> flows;
    LatencyHistogram probes;
    std::uint64_t probesRcvd = 0;

    void
    deliver(const PacketPtr &pkt) override
    {
        if (pkt->flowId == kProbeFlow) {
            if (pkt->born >= measureFrom) {
                probes.sample(eq->curTick() - pkt->born);
                ++probesRcvd;
            }
            return;
        }
        auto it = flows.find(pkt->flowId);
        if (it != flows.end())
            it->second->onReceiverReceive(pkt);
    }
};

struct NullEp : NetEndpoint
{
    void deliver(const PacketPtr &) override {}
};

/**
 * Byte ledger of one promote/demote round trip. The packet phase is
 * booked at the sender: bytes it saw acknowledged. The receiver may
 * already hold segments whose ACK was still in flight at demotion;
 * go-back-N owes those to the fluid side again, so they are delivered
 * twice (dupBytes).
 */
struct Handoff
{
    std::uint64_t fluidBefore = 0; ///< delivered before promotion
    std::uint64_t enqueued = 0;    ///< handed to the packet flow
    std::uint64_t packetAcked = 0;
    std::uint64_t dupBytes = 0;
    TransportFlow *flow = nullptr;
};

struct Dumbbell
{
    EventQueue eq;
    Knobs k;
    const Inputs &in;
    Tracer *tracer;
    std::uint32_t sinkId, probeId;
    Switch sw;
    EthLink bottleneck, probeAccess;
    SinkEp sink;
    NullEp probeSrc;
    FluidSolver solver;
    FluidLink *fluid = nullptr;
    FidelityManager mgr;
    std::vector<std::unique_ptr<SenderEp>> eps;
    std::vector<std::unique_ptr<EthLink>> access;
    std::vector<std::unique_ptr<TransportFlow>> flows;
    std::uint64_t probesSent = 0;
    TransportConfig fcfg{};
    DcqcnState seedCc{};
    std::map<std::uint64_t, Handoff> handoffs;

    static FidelityPolicy
    policy(const Knobs &k, FidelityMode mode)
    {
        FidelityPolicy pol;
        pol.mode = mode;
        pol.witnessEvery = mode == FidelityMode::Hybrid ? k.witnessEvery : 0;
        pol.rttEstimate = usToTicks(25);
        return pol;
    }

    Dumbbell(const Knobs &knobs, const Inputs &inputs, FidelityMode mode,
             Tracer *t)
        : k(knobs), in(inputs), tracer(t), sinkId(k.nodes),
          probeId(k.nodes + 1), sw(eq, "sw", k.eth),
          bottleneck(eq, "bottleneck", k.eth),
          probeAccess(eq, "probe-access", k.eth),
          solver(eq, "fluid", k.tcfg.rateIncreaseInterval),
          mgr(policy(k, mode))
    {
        sink.eq = &eq;
        sink.measureFrom = k.warmup;
        bottleneck.connect(&sw, &sink);
        sw.addRoute(sinkId, &bottleneck);
        probeAccess.connect(&probeSrc, &sw);
        if (mode != FidelityMode::Packet) {
            fluid = &solver.addLink("bottleneck", k.eth, k.segBytes);
            bottleneck.setBackgroundSource(fluid);
            sw.setBackgroundSource(&bottleneck, fluid);
            solver.start(k.horizon);
        }

        fcfg = k.tcfg;
        fcfg.segmentBytes = k.segBytes;
        fcfg.lineRateGbps = k.demandGbps();
        seedCc.init(fcfg);
        double fair = std::min(k.demandGbps(), k.eth.gbps / k.nodes);
        seedCc.rateGbps = fair;
        seedCc.targetGbps = fair;
        seedCc.alpha = 0.2;

        std::uint64_t volume = k.volumePerFlow();
        for (std::uint32_t i = 0; i < k.nodes; ++i) {
            auto ep = std::make_unique<SenderEp>();
            auto link = std::make_unique<EthLink>(
                eq, "access" + std::to_string(i), k.eth);
            link->connect(ep.get(), &sw);
            sw.addRoute(i, link.get());
            std::uint64_t id = i + 1;
            Tick start = in.start[i];
            if (mgr.classify(id, i, sinkId, start) ==
                FlowFidelity::PacketLevel) {
                TransportFlow *f =
                    addPacketFlow(id, i, ep.get(), link.get());
                FlowHandoff h;
                h.cc = seedCc;
                f->importHandoff(h);
                eq.schedule(start, [this, f, volume] {
                    ScopedSpan s(tracer, "TransportFlow::send",
                                 Layer::Transport, f->flowId());
                    f->send(volume);
                });
            } else {
                eq.schedule(start, [this, id, volume] {
                    ScopedSpan s(tracer, "FluidSolver::addFlow",
                                 Layer::Flow, id);
                    solver.addFlow(id, fcfg, {fluid}, volume, &seedCc);
                });
            }
            eps.push_back(std::move(ep));
            access.push_back(std::move(link));
        }
        if (mode == FidelityMode::Hybrid) {
            eq.schedule(k.promoteAt, [this] { promoteAll(); });
            eq.schedule(k.demoteAt, [this] { demoteAll(); });
        }
        scheduleProbe(in.probeFirst);
    }

    // Scheduled events hold `this`.
    Dumbbell(const Dumbbell &) = delete;
    Dumbbell &operator=(const Dumbbell &) = delete;

    TransportFlow *
    addPacketFlow(std::uint64_t id, std::uint32_t src, SenderEp *ep,
                  EthLink *link)
    {
        auto f = std::make_unique<TransportFlow>(
            eq, "flow" + std::to_string(id), fcfg, id);
        f->bindSender(
            [this, src](std::uint32_t bytes, std::uint64_t flow) {
                PacketPtr p = makePacket(eq, bytes, src, sinkId);
                p->flowId = flow;
                p->born = eq.curTick();
                return p;
            },
            [ep, link](const PacketPtr &p) { link->send(ep, p); });
        f->bindReceiver(
            [this, src](std::uint32_t bytes, std::uint64_t flow) {
                PacketPtr p = makePacket(eq, bytes, sinkId, src);
                p->flowId = flow;
                p->born = eq.curTick();
                return p;
            },
            [this](const PacketPtr &p) { bottleneck.send(&sink, p); });
        ep->flow = f.get();
        sink.flows[id] = f.get();
        flows.push_back(std::move(f));
        return flows.back().get();
    }

    void
    promoteAll()
    {
        for (std::uint64_t id : in.handoff) {
            if (!solver.findFlow(id))
                continue; // not started yet, or already done
            ScopedSpan s(tracer, "FidelityManager::promote", Layer::Flow,
                         id);
            Handoff &h = handoffs[id];
            FlowHandoff fh = mgr.promote(solver, id, h.fluidBefore);
            std::uint32_t src = std::uint32_t(id - 1);
            h.flow = addPacketFlow(id, src, eps[src].get(),
                                   access[src].get());
            h.flow->importHandoff(fh);
            h.enqueued = fh.bytesRemaining();
            h.flow->send(h.enqueued);
            h.flow->close();
        }
    }

    void
    demoteAll()
    {
        for (auto &[id, h] : handoffs) {
            if (h.flow->complete())
                continue;
            ScopedSpan s(tracer, "FidelityManager::demote", Layer::Flow,
                         id);
            FluidFlow &rest = mgr.demote(solver, *h.flow, {fluid});
            h.packetAcked = h.enqueued - rest.totalBytes;
            h.dupBytes = h.flow->deliveredBytes() - h.packetAcked;
        }
    }

    void
    scheduleProbe(Tick at)
    {
        if (at >= k.horizon - k.probeDrain)
            return;
        eq.schedule(at, [this] {
            PacketPtr p = makePacket(eq, k.segBytes, probeId, sinkId);
            p->flowId = kProbeFlow;
            p->born = eq.curTick();
            if (p->born >= k.warmup)
                ++probesSent;
            probeAccess.send(&probeSrc, p);
            scheduleProbe(eq.curTick() + k.probeGap);
        });
    }
};

class IncastHybrid : public Workload
{
  public:
    RepResult rep(std::uint64_t seed, Tracer *tracer) override;
    void finish(std::uint64_t seed, Values &sim,
                std::vector<std::string> &failures) override;
    void describe(const Values &sim) const override;

  private:
    Knobs _k;
    /** Per-draw probe percentiles (us) of the last rep. */
    std::vector<double> _p50, _p99;
    std::uint64_t _minProbes = 0;
    Values _counters;
    double _refP99Us = 0.0;
    std::uint64_t _refN = 0;
};

/** Every fluid flow conserves bytes, and every promote/demote round
 *  trip accounts for its flow's whole volume. */
void
checkLedger(Dumbbell &d, std::vector<std::string> &fail)
{
    const Knobs &k = d.k;
    const double volume = double(k.volumePerFlow());
    double worst = 0.0;
    std::uint64_t worstId = 0;
    auto track = [&](double err, std::uint64_t id) {
        if (std::fabs(err) > std::fabs(worst)) {
            worst = err;
            worstId = id;
        }
    };
    for (std::uint32_t i = 0; i < k.nodes; ++i) {
        std::uint64_t id = i + 1;
        FluidFlow *f = d.solver.findFlow(id);
        if (!f)
            continue;
        double sum = f->deliveredBytes + f->backlogBytes + f->unsentBytes();
        track(sum - double(f->totalBytes), id);
        auto h = d.handoffs.find(id);
        if (h != d.handoffs.end())
            track(double(h->second.fluidBefore) +
                      double(h->second.packetAcked) + sum - volume,
                  id);
    }
    for (const auto &[id, h] : d.handoffs)
        if (h.flow->complete() &&
            h.flow->deliveredBytes() != h.enqueued)
            track(double(h.flow->deliveredBytes()) - double(h.enqueued),
                  id);
    if (std::fabs(worst) > 1e-6 * volume + 1.0) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "incast-hybrid: byte ledger of flow %llu off by "
                      "%.3f B",
                      (unsigned long long)worstId, worst);
        fail.push_back(msg);
    }
}

RepResult
IncastHybrid::rep(std::uint64_t seed, Tracer *tracer)
{
    using clock = std::chrono::steady_clock;
    RepResult r;
    _p50.clear();
    _p99.clear();
    _minProbes = ~std::uint64_t(0);
    std::uint64_t retx = 0, timeouts = 0, delivered = 0;
    std::uint64_t rounds = 0, cuts = 0, promotions = 0, demotions = 0;
    std::uint64_t dupBytes = 0;
    std::uint64_t marks = 0, maxQueue = 0;
    for (std::uint32_t j = 0; j < kPhases; ++j) {
        auto t0 = clock::now();
        std::unique_ptr<Inputs> in;
        std::unique_ptr<Dumbbell> d;
        {
            ScopedSpan s(tracer, "Dumbbell", Layer::Harness, j);
            in = std::make_unique<Inputs>(_k, seed * kPhases + j);
            d = std::make_unique<Dumbbell>(_k, *in, FidelityMode::Hybrid,
                                           tracer);
        }
        auto t1 = clock::now();
        double cpu0 = processCpuSeconds();
        {
            ScopedSpan s(tracer, "EventQueue::runUntil", Layer::Sim, j);
            d->eq.runUntil(_k.horizon);
        }
        r.cpuParts.push_back(processCpuSeconds() - cpu0);
        auto t2 = clock::now();
        r.setupS += std::chrono::duration<double>(t1 - t0).count();
        r.wallParts.push_back(
            std::chrono::duration<double>(t2 - t1).count());
        r.events += d->eq.executedEvents();

        r.attempted += d->probesSent;
        r.failed +=
            d->probesSent - std::min(d->probesSent, d->sink.probesRcvd);
        if (d->sink.probesRcvd != d->probesSent)
            r.checkFailures.push_back(
                "incast-hybrid: " + std::to_string(d->probesSent) +
                " probes sent, " + std::to_string(d->sink.probesRcvd) +
                " delivered");
        checkLedger(*d, r.checkFailures);

        const LatencyHistogram &h = d->sink.probes;
        _p50.push_back(h.percentile(0.50) / double(tickPerUs));
        _p99.push_back(h.percentile(0.99) / double(tickPerUs));
        _minProbes = std::min(_minProbes, h.count());
        r.digests.push_back({"probes." + std::to_string(j), h.digest()});

        for (const auto &f : d->flows) {
            retx += f->retransmissions();
            timeouts += f->timeouts();
            delivered += f->deliveredBytes();
        }
        rounds += d->solver.rounds();
        cuts += d->solver.rateCuts();
        promotions += d->mgr.promotions();
        for (const auto &[id, h] : d->handoffs)
            dupBytes += h.dupBytes;
        demotions += d->mgr.demotions();
        marks += d->sw.ecnMarks();
        maxQueue = std::max<std::uint64_t>(maxQueue, d->sw.maxQueueDepth());
    }
    double retxBytes = double(retx) * _k.segBytes;
    _counters = {
        {"flow.rounds", double(rounds)},
        {"flow.rate_cuts", double(cuts)},
        {"flow.promotions", double(promotions)},
        {"flow.demotions", double(demotions)},
        {"flow.handoff_dup_bytes", double(dupBytes)},
        {"transport.retransmissions", double(retx)},
        {"transport.timeouts", double(timeouts)},
        {"transport.goodput_ratio",
         delivered ? double(delivered) / (double(delivered) + retxBytes)
                   : 0.0},
        {"net.switch_ecn_marks", double(marks)},
        {"net.switch_max_queue", double(maxQueue)},
    };
    return r;
}

void
IncastHybrid::finish(std::uint64_t seed, Values &v,
                     std::vector<std::string> &failures)
{
    // Packet-level reference of the first draw's inputs, untimed. Its
    // p99 moves only a few percent with the probe phase (NOTES.md), so
    // one reference serves every draw.
    Inputs in(_k, seed * kPhases);
    Dumbbell ref(_k, in, FidelityMode::Packet, nullptr);
    ref.eq.runUntil(_k.horizon);
    _refP99Us = ref.sink.probes.percentile(0.99) / double(tickPerUs);
    _refN = ref.sink.probes.count();
    if (ref.sink.probesRcvd != ref.probesSent)
        failures.push_back("incast-hybrid reference: probes lost");

    double p99 = median(_p99);
    v["sim_p50_us"] = median(_p50);
    v["sim_p99_us"] = p99;
    v["sim.lat_n"] = double(_minProbes);
    v["incast_p99_err_pct"] =
        _refP99Us > 0 ? 100.0 * std::fabs(p99 - _refP99Us) / _refP99Us
                      : 0.0;
    for (const auto &[name, value] : _counters)
        v[name] = value;
}

void
IncastHybrid::describe(const Values &v) const
{
    std::printf("incast-hybrid: %u DCQCN senders -> one %.0f Gbps "
                "bottleneck at %.1fx load for %.0f ms, every %uth flow "
                "packet-level, %u flows promoted and demoted\n",
                _k.nodes, _k.eth.gbps, _k.load, ticksToUs(_k.horizon) / 1e3,
                _k.witnessEvery, _k.handoffFlows);
    std::printf("  probe one-way p99 per draw (us):");
    for (double p : _p99)
        std::printf(" %.3f", p);
    std::printf("\n  median of %u draws: p50 %.3f us  p99 %.3f us  "
                "(n>=%.0f per draw)\n",
                kPhases, v.at("sim_p50_us"), v.at("sim_p99_us"),
                v.at("sim.lat_n"));
    std::printf("  packet-level reference p99 %.3f us (n=%llu)  "
                "incast_p99_err_pct %.3f %%\n",
                _refP99Us, (unsigned long long)_refN,
                v.at("incast_p99_err_pct"));
}

} // namespace

std::unique_ptr<Workload>
makeIncastHybrid()
{
    return std::make_unique<IncastHybrid>();
}

} // namespace perfbench
