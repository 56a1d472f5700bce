/**
 * @file
 * Fig. 12(a): per-packet network latency replaying the three
 * Facebook-cluster traffic mixes over a clos fabric, for switch
 * latencies of 25/50/100/200 ns, with NetDIMM normalized to the dNIC
 * and iNIC configurations.
 *
 * Paper: NetDIMM improves dNIC end-to-end packet latency by
 * 40.6/36.0/33.1/25.3% on average for the four switch latencies, and
 * iNIC by 8.1~15.3%; webserver benefits most (small, intra-DC
 * packets), hadoop least (bimodal sizes, local traffic).
 *
 * Each cluster's trace is synthesized ONCE and shared read-only by
 * every cell (cluster x switch latency x NIC kind); the 36-cell grid
 * runs on a SweepRunner thread pool (`--jobs N`, default: hardware
 * concurrency) and prints in grid order, so output is byte-identical
 * regardless of the job count.
 */

#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "net/Switch.hh"
#include "transport/TransportHost.hh"
#include "workload/TraceFile.hh"
#include "workload/TraceGen.hh"
#include "kernel/Node.hh"

using namespace netdimm;

namespace
{

double
replayMeanLatencyUs(const std::vector<TraceRecord> &trace,
                    NicKind kind, double switch_ns)
{
    SystemConfig cfg;
    cfg.nic = kind;
    cfg.eth.switchLatency = nsToTicks(switch_ns);

    EventQueue eq;
    Node tx(eq, "tx", cfg, 0);
    Node rx(eq, "rx", cfg, 1);
    ClosFabric fabric(eq, "fabric", cfg.eth);
    fabric.attach(0, tx.endpoint());
    fabric.attach(1, rx.endpoint());

    // The fabric charges each packet its trace record's locality
    // class, stamped on the packet at send time.
    tx.setWire([&](const PacketPtr &pkt) { fabric.deliver(pkt); });
    rx.setWire([&](const PacketPtr &pkt) { fabric.deliver(pkt); });

    const int npackets = int(trace.size());
    double sum_us = 0.0;
    int measured = 0;
    int seen = 0;
    int warmup = npackets / 10;
    rx.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        if (seen++ >= warmup) {
            sum_us += ticksToUs(pkt->oneWayLatency());
            ++measured;
        }
    });

    // Replay the pre-synthesized arrivals; ~5 Gbps offered so
    // endpoint queues stay shallow (the paper replays a single node's
    // trace, not a saturating stream). Eight flows spread RX
    // contexts.
    Tick t = 0;
    for (int i = 0; i < npackets; ++i) {
        const TraceRecord &rec = trace[std::size_t(i)];
        t += rec.interArrival;
        eq.schedule(t, [&tx, &rx, rec, i] {
            PacketPtr pkt = tx.makeTxPacket(rec.bytes, rx.id(),
                                            1 + (i % 8));
            pkt->locality = rec.locality;
            tx.sendPacket(pkt);
        });
    }
    eq.run();
    return measured ? sum_us / measured : 0.0;
}

/**
 * The same replay with the reliable transport in the loop: trace
 * records are enqueued on eight go-back-N flows instead of being
 * injected as raw frames, so per-packet latency includes pacing and
 * (under loss) retransmission. The fabric carries every segment at
 * intra-cluster locality since segments no longer map 1:1 to trace
 * records.
 */
double
replayReliableMeanLatencyUs(const std::vector<TraceRecord> &trace,
                            NicKind kind, double switch_ns)
{
    SystemConfig cfg;
    cfg.nic = kind;
    cfg.eth.switchLatency = nsToTicks(switch_ns);

    EventQueue eq;
    Node tx(eq, "tx", cfg, 0);
    Node rx(eq, "rx", cfg, 1);
    ClosFabric fabric(eq, "fabric", cfg.eth);
    fabric.attach(0, tx.endpoint());
    fabric.attach(1, rx.endpoint());
    tx.setWire([&](const PacketPtr &pkt) { fabric.deliver(pkt); });
    rx.setWire([&](const PacketPtr &pkt) { fabric.deliver(pkt); });

    TransportHost txHost(eq, "txhost", tx);
    TransportHost rxHost(eq, "rxhost", rx);

    const int npackets = int(trace.size());
    double sum_us = 0.0;
    int measured = 0;
    int seen = 0;
    int warmup = npackets / 10;
    std::vector<std::unique_ptr<TransportFlow>> flows;
    for (int p = 0; p < 8; ++p) {
        auto flow = std::make_unique<TransportFlow>(
            eq, "flow" + std::to_string(p), cfg.transport, 1 + p);
        connectFlow(*flow, txHost, rxHost);
        flow->setDeliveryHandler(
            [&](const PacketPtr &pkt, Tick) {
                if (seen++ >= warmup) {
                    sum_us += ticksToUs(pkt->oneWayLatency());
                    ++measured;
                }
            });
        flows.push_back(std::move(flow));
    }

    Tick t = 0;
    for (int i = 0; i < npackets; ++i) {
        const TraceRecord &rec = trace[std::size_t(i)];
        t += rec.interArrival;
        TransportFlow *f = flows[std::size_t(i % 8)].get();
        eq.schedule(t, [f, rec] { f->send(rec.bytes); });
    }
    eq.schedule(t, [&flows] {
        for (auto &f : flows)
            f->close();
    });
    eq.run();
    return measured ? sum_us / measured : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    SweepCli cli = parseSweepCli(argc, argv, {"--reliable"});
    bool reliable = false;
    for (const std::string &a : cli.rest)
        if (a == "--reliable")
            reliable = true;
    auto replay = reliable ? replayReliableMeanLatencyUs
                           : replayMeanLatencyUs;
    const int npackets = 1500;
    const std::vector<double> switch_ns = {25, 50, 100, 200};
    const std::vector<ClusterType> clusters = {ClusterType::Database,
                                               ClusterType::Webserver,
                                               ClusterType::Hadoop};
    const std::vector<NicKind> kinds = {
        NicKind::Discrete, NicKind::Integrated, NicKind::NetDimm};

    std::printf("=== Fig. 12(a): per-packet latency, Facebook trace "
                "replay over clos fabric (%s) ===\n",
                reliable ? "reliable transport" : "raw frames");

    // Shared immutable inputs: one synthesized trace per cluster,
    // identical to what each cell used to generate privately (same
    // generator, same seed), read by every cell via const ref.
    std::vector<std::vector<TraceRecord>> traces =
        synthesizeClusterTraces(clusters, 5.0, 12345, npackets);

    // Grid order: cluster-major, then switch latency, then NIC kind.
    std::vector<SweepCell<double>> cells;
    cells.reserve(clusters.size() * switch_ns.size() * kinds.size());
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        for (double ns : switch_ns) {
            for (NicKind kind : kinds) {
                char label[64];
                std::snprintf(label, sizeof(label), "%s %.0fns %s",
                              clusterName(clusters[c]), ns,
                              nicKindName(kind));
                const std::vector<TraceRecord> &trace = traces[c];
                cells.push_back({label, [=, &trace] {
                                     return replay(trace, kind, ns);
                                 }});
            }
        }
    }

    SweepRunner runner(cli.jobs);
    std::vector<double> results = runner.run(std::move(cells));

    // normalized[cluster][switch] for the two baselines.
    double avg_vs_dnic[4] = {0, 0, 0, 0};
    double avg_vs_inic[4] = {0, 0, 0, 0};

    std::size_t at = 0;
    for (ClusterType c : clusters) {
        std::printf("\n-- %s cluster --\n", clusterName(c));
        std::printf("%12s %10s %10s %10s %12s %12s\n", "switch(ns)",
                    "dNIC(us)", "iNIC(us)", "NetDIMM", "vs dNIC",
                    "vs iNIC");
        for (std::size_t s = 0; s < switch_ns.size(); ++s) {
            double d = results[at++];
            double i = results[at++];
            double n = results[at++];
            double gd = 100.0 * (1.0 - n / d);
            double gi = 100.0 * (1.0 - n / i);
            avg_vs_dnic[s] += gd / double(clusters.size());
            avg_vs_inic[s] += gi / double(clusters.size());
            std::printf("%12.0f %10.3f %10.3f %10.3f %11.1f%% "
                        "%11.1f%%\n",
                        switch_ns[s], d, i, n, gd, gi);
        }
    }

    std::printf("\n-- average NetDIMM gain vs dNIC per switch latency "
                "(paper: 40.6 / 36.0 / 33.1 / 25.3%%) --\n");
    for (std::size_t s = 0; s < switch_ns.size(); ++s)
        std::printf("  %3.0fns: %5.1f%%\n", switch_ns[s],
                    avg_vs_dnic[s]);
    std::printf("\n-- average NetDIMM gain vs iNIC per switch latency "
                "(paper: 8.1~15.3%%) --\n");
    for (std::size_t s = 0; s < switch_ns.size(); ++s)
        std::printf("  %3.0fns: %5.1f%%\n", switch_ns[s],
                    avg_vs_inic[s]);
    return 0;
}
