/**
 * @file
 * Fig. 12(b): memory access latency observed by a co-running
 * application while the node runs a network function over replayed
 * cluster traffic, NetDIMM normalized to iNIC.
 *
 * DPI touches every payload byte: on NetDIMM that streams the packet
 * across the host channel (worse than iNIC's DDIO-resident copy,
 * paper: +5.7~15.4%). L3F touches only the header: nCache serves it
 * and the payload never leaves the DIMM, while iNIC's DDIO writes
 * churn the LLC and spill to DRAM (paper: -9.8~-30.9%).
 */

#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "net/Switch.hh"
#include "workload/MemLatencyProbe.hh"
#include "workload/NfHarness.hh"
#include "workload/TraceGen.hh"

using namespace netdimm;

namespace
{

double
probeLatencyNs(ClusterType cluster, NicKind kind, NfKind nf,
               int npackets)
{
    SystemConfig cfg;
    cfg.nic = kind;

    EventQueue eq;
    Node gen(eq, "gen", cfg, 0);
    Node nut(eq, "nut", cfg, 1); // node under test
    ClosFabric fabric(eq, "fabric", cfg.eth);
    fabric.attach(0, gen.endpoint());
    fabric.attach(1, nut.endpoint());
    gen.setWire([&](const PacketPtr &p) { fabric.deliver(p); });
    nut.setWire([&](const PacketPtr &p) { fabric.deliver(p); });

    NfHarness harness(eq, "nf", nut, nf);
    MemLatencyProbe probe(eq, "probe", nut, nsToTicks(20));

    // Warm the co-runner's working set, then start the traffic and
    // drop the warm-up samples.
    const Tick traffic_start = usToTicks(150);
    probe.warmUp();
    probe.start();
    eq.schedule(traffic_start, [&probe] { probe.resetStats(); });

    // Offered load high enough to stress the memory path (~24 Gbps).
    TraceGen tg(cluster, 24.0, 777);
    Tick t = traffic_start;
    for (int i = 0; i < npackets; ++i) {
        TraceRecord rec = tg.next();
        t += rec.interArrival;
        eq.schedule(t, [&gen, &nut, rec, i] {
            PacketPtr pkt =
                gen.makeTxPacket(rec.bytes, nut.id(), 1 + (i % 8));
            gen.sendPacket(pkt);
        });
    }
    eq.run(t + usToTicks(50));
    probe.stop();
    return probe.meanLatencyNs();
}

} // namespace

int
main(int argc, char **argv)
{
    requireNoArguments(argc, argv);
    setQuiet(true);
    const int npackets = 2500;
    const std::vector<ClusterType> clusters = {ClusterType::Database,
                                               ClusterType::Webserver,
                                               ClusterType::Hadoop};

    std::printf("=== Fig. 12(b): co-runner memory latency, NetDIMM "
                "normalized to iNIC ===\n\n");
    std::printf("%-11s %-5s %12s %14s %12s\n", "cluster", "NF",
                "iNIC(ns)", "NetDIMM(ns)", "normalized");

    double avg[3] = {0, 0, 0};
    int ci = 0;
    for (ClusterType c : clusters) {
        double cluster_sum = 0.0;
        for (NfKind nf : {NfKind::DeepInspect, NfKind::L3Forward}) {
            double i = probeLatencyNs(c, NicKind::Integrated, nf,
                                      npackets);
            double n =
                probeLatencyNs(c, NicKind::NetDimm, nf, npackets);
            double norm = n / i;
            cluster_sum += norm;
            std::printf("%-11s %-5s %12.1f %14.1f %11.3fx\n",
                        clusterName(c), nfKindName(nf), i, n, norm);
        }
        avg[ci++] = cluster_sum / 2.0;
    }

    std::printf("\n-- mean normalized latency per cluster "
                "(paper: improvements of 9.3 / 2.4 / 13.6%%) --\n");
    for (int i = 0; i < 3; ++i) {
        std::printf("  %-11s %.3fx (%+.1f%%)\n",
                    clusterName(clusters[std::size_t(i)]), avg[i],
                    100.0 * (avg[i] - 1.0));
    }
    std::printf("\n(paper: DPI +5.7~15.4%% worse on NetDIMM, L3F "
                "9.8~30.9%% better)\n");
    return 0;
}
