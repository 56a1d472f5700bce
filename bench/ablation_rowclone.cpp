/**
 * @file
 * Ablation: in-memory buffer cloning (Sec. 4.1/4.2.1 design choices).
 *
 * Part 1 compares the three RowClone modes against a CPU copy for
 * buffer sizes up to 8KB: FPM (same sub-array -- what the hinted
 * allocator arranges), PSM (different banks), GCM (the general
 * fallback), and the conventional cache-mediated memcpy.
 *
 * Part 2 measures the end-to-end NetDIMM RX latency with the
 * sub-array-aware allocation hint enabled vs disabled: without the
 * hint, clones fall back to PSM/GCM and the rxCopy component grows.
 */

#include <cstdio>

#include "harness/SweepRunner.hh"
#include "mem/RowClone.hh"
#include "workload/LatencyHarness.hh"

using namespace netdimm;

int
main(int argc, char **argv)
{
    requireNoArguments(argc, argv);
    setQuiet(true);
    SystemConfig cfg;

    std::printf("=== Ablation: RowClone modes vs CPU copy ===\n\n");
    {
        EventQueue eq;
        DramGeometry geo = NetDimmDevice::localGeometry(cfg);
        MemoryController nmc(eq, "nmc", cfg.dram, geo, cfg.memCtrl);
        RowCloneEngine rc(eq, "rc", nmc, cfg.netdimm.rowClone);
        const DimmDecoder &dec = nmc.decoder();

        Addr src = dec.pageAddress(0, 2, 5, 0);
        Addr fpm_dst = dec.pageAddress(0, 2, 5, 1);
        Addr psm_dst = dec.pageAddress(0, 3, 5, 0);
        Addr gcm_dst = dec.pageAddress(1, 2, 5, 0);

        std::printf("%8s %10s %10s %10s %14s\n", "bytes", "FPM(ns)",
                    "PSM(ns)", "GCM(ns)", "CPU copy(ns)");
        for (std::uint32_t bytes :
             {64u, 256u, 1024u, 1460u, 4096u, 8192u}) {
            // CPU copy reference: MLP-bounded line fills.
            double cpu_ns =
                ticksToNs(cfg.sw.copySetup) +
                double((bytes + 63) / 64) / cfg.sw.copyMlp * 60.0;
            std::printf("%8u %10.1f %10.1f %10.1f %14.1f\n", bytes,
                        ticksToNs(rc.idealLatency(src, fpm_dst, bytes)),
                        ticksToNs(rc.idealLatency(src, psm_dst, bytes)),
                        ticksToNs(rc.idealLatency(src, gcm_dst, bytes)),
                        cpu_ns);
        }
    }

    std::printf("\n=== Ablation: sub-array allocation hint "
                "(end-to-end NetDIMM RX) ===\n\n");
    std::printf("%8s %16s %18s %10s\n", "bytes", "hinted rxCopy(us)",
                "unhinted rxCopy(us)", "delta");
    for (std::uint32_t bytes : {64u, 512u, 1460u, 4096u}) {
        SystemConfig hinted = cfg;
        hinted.netdimm.subArrayHint = true;
        SystemConfig unhinted = cfg;
        unhinted.netdimm.subArrayHint = false;

        PingResult h =
            LatencyHarness(hinted, NicKind::NetDimm).run(bytes);
        PingResult u =
            LatencyHarness(unhinted, NicKind::NetDimm).run(bytes);
        double hc = h.compUs[std::size_t(LatComp::RxCopy)];
        double uc = u.compUs[std::size_t(LatComp::RxCopy)];
        std::printf("%8u %17.3f %19.3f %9.1f%%\n", bytes, hc, uc,
                    100.0 * (uc - hc) / hc);
    }
    std::printf("\n(expected: FPM flat in size and fastest; the hint "
                "keeps clones in FPM,\n so disabling it inflates the "
                "rxCopy component, most at large sizes)\n");
    return 0;
}
