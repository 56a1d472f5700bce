/**
 * @file
 * Ablation: Data Direct I/O (Sec. 2.1). With DDIO the NIC lands
 * packets in the LLC and the driver's descriptor poll and copies hit
 * SRAM; without it every RX byte detours through DRAM. The bench
 * also shows the dark side the paper cites: at high rates the
 * DDIO-restricted ways overflow and unconsumed packet lines leak to
 * DRAM (ResQ's "DMA leakage" [68]).
 */

#include <cstdio>

#include "harness/SweepRunner.hh"
#include "net/Link.hh"
#include "workload/IperfFlow.hh"
#include "workload/LatencyHarness.hh"

using namespace netdimm;

int
main(int argc, char **argv)
{
    requireNoArguments(argc, argv);
    setQuiet(true);

    std::printf("=== Ablation: DDIO on/off (dNIC) ===\n\n");
    std::printf("-- one-way latency --\n");
    std::printf("%8s %12s %12s %10s\n", "bytes", "DDIO on(us)",
                "DDIO off(us)", "delta");
    for (std::uint32_t bytes : {64u, 512u, 1460u}) {
        SystemConfig on;
        SystemConfig off;
        off.llc.ddioEnabled = false;
        double a =
            LatencyHarness(on, NicKind::Discrete).run(bytes).totalUs;
        double b =
            LatencyHarness(off, NicKind::Discrete).run(bytes).totalUs;
        std::printf("%8u %12.3f %12.3f %9.1f%%\n", bytes, a, b,
                    100.0 * (b - a) / a);
    }

    std::printf("\n-- DMA leakage at line rate (4-stream iperf, "
                "400us) --\n");
    std::printf("%12s %14s %14s %14s\n", "DDIO share", "goodput(Gbps)",
                "ddio inserts", "leaked lines");
    for (double share : {0.05, 0.10, 0.25, 0.50}) {
        SystemConfig cfg;
        cfg.nic = NicKind::Discrete;
        cfg.llc.ddioFraction = share;

        EventQueue eq;
        Node tx(eq, "tx", cfg, 0);
        Node rx(eq, "rx", cfg, 1);
        EthLink link(eq, "link", cfg.eth);
        connectNodes(link, tx, rx);
        IperfFlow flow(eq, "flow", tx, rx, 1460, 64, 4);
        flow.start();
        eq.run(usToTicks(400));

        std::printf("%11.0f%% %14.2f %14llu %14llu\n", share * 100.0,
                    flow.goodputGbps(),
                    (unsigned long long)rx.llc().ddioInserts(),
                    (unsigned long long)rx.llc().ddioLeaks());
    }
    std::printf("\n(expected: DDIO-off adds a DRAM round trip to the "
                "latency path; small DDIO\n shares leak a larger "
                "fraction of packet lines to DRAM before the CPU "
                "reads them)\n");
    return 0;
}
