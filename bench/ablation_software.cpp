/**
 * @file
 * Software-stack ablations backing two of the paper's methodology
 * statements:
 *
 * 1. Sec. 2.1: "ultra-low latency networks are usually deployed in
 *    (adaptive) polling mode" because interrupt handling delays
 *    packet processing by microseconds -- measured here by switching
 *    the drivers between Polling and Interrupt notification.
 *
 * 2. Sec. 5.1: "the overhead of Linux kernel software stack fades
 *    the latency improvements of NetDIMM", the reason the paper
 *    evaluates with bare-metal drivers -- measured here by sweeping a
 *    per-packet kernel-stack surcharge and watching NetDIMM's
 *    relative gain shrink.
 */

#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "workload/LatencyHarness.hh"

using namespace netdimm;

int
main(int argc, char **argv)
{
    requireNoArguments(argc, argv);
    setQuiet(true);
    const std::uint32_t bytes = 256;

    std::printf("=== Ablation 1: polling vs interrupt notification "
                "(256B packets) ===\n\n");
    std::printf("%-10s %14s %16s %10s\n", "NIC", "polling(us)",
                "interrupt(us)", "penalty");
    for (NicKind kind : {NicKind::Discrete, NicKind::Integrated,
                         NicKind::NetDimm}) {
        SystemConfig poll;
        poll.sw.notify = NotifyMode::Polling;
        SystemConfig intr;
        intr.sw.notify = NotifyMode::Interrupt;
        double p = LatencyHarness(poll, kind).run(bytes).totalUs;
        double i = LatencyHarness(intr, kind).run(bytes).totalUs;
        std::printf("%-10s %14.3f %16.3f %9.1f%%\n", nicKindName(kind),
                    p, i, 100.0 * (i - p) / p);
    }

    std::printf("\n=== Ablation 2: kernel network stack overhead "
                "(256B packets) ===\n\n");
    std::printf("%16s %10s %12s %14s\n", "stack cycles/pkt",
                "dNIC(us)", "NetDIMM(us)", "NetDIMM gain");
    for (std::uint64_t cycles : {0ull, 2000ull, 8000ull, 20000ull}) {
        SystemConfig cfg;
        cfg.sw.kernelStackCycles = cycles;
        double d =
            LatencyHarness(cfg, NicKind::Discrete).run(bytes).totalUs;
        double n =
            LatencyHarness(cfg, NicKind::NetDimm).run(bytes).totalUs;
        std::printf("%16llu %10.3f %12.3f %13.1f%%\n",
                    (unsigned long long)cycles, d, n,
                    100.0 * (1.0 - n / d));
    }
    std::printf("\n(expected: interrupts add microseconds on every "
                "architecture; a heavy\n kernel stack equalizes the "
                "architectures, which is why Sec. 5.1 evaluates\n with "
                "bare-metal drivers)\n");
    return 0;
}
