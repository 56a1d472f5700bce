/**
 * @file
 * NFV middlebox example: a node runs an L3 forwarder or a deep
 * packet inspector over a stream of datacenter traffic while a
 * latency-sensitive application shares its memory system -- the
 * Sec. 5.3 scenario, runnable as a small standalone program. Each
 * row is the shared Fig. 12(b) cell (NfCell in
 * src/workload/Scenarios.hh) on webserver traffic, seed 99.
 *
 *   $ ./examples/nfv_forwarder [l3f|dpi] [gbps]
 *
 * gbps must be a finite number > 0; a malformed argument prints a
 * usage line and exits 2.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <cstdlib>

#include "workload/Scenarios.hh"

using namespace netdimm;

namespace
{

/** Parse a whole string as a finite double. */
bool
parseDouble(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && std::isfinite(out);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    NfKind nf = NfKind::L3Forward;
    double gbps = 24.0;
    bool ok = argc <= 3;
    if (ok && argc > 1) {
        if (std::strcmp(argv[1], "dpi") == 0)
            nf = NfKind::DeepInspect;
        else
            ok = std::strcmp(argv[1], "l3f") == 0;
    }
    if (ok && argc > 2)
        ok = parseDouble(argv[2], gbps) && gbps > 0.0;
    if (!ok) {
        std::fprintf(stderr,
                     "usage: nfv_forwarder [l3f|dpi] [gbps > 0]\n");
        return 2;
    }
    const int npackets = 2000;

    std::printf("NFV middlebox: %s at ~%.0f Gbps of webserver-mix "
                "traffic\n\n",
                nfKindName(nf), gbps);
    std::printf("%-10s %16s %18s %16s\n", "NIC", "fwd latency(ns)",
                "co-runner mem(ns)", "packets fwd");

    for (NicKind kind : {NicKind::Integrated, NicKind::NetDimm}) {
        NfCell cell(kind, nf, "mbox");
        cell.run(ClusterType::Webserver, gbps, 99, npackets);

        std::printf("%-10s %16.1f %18.1f %16llu\n", nicKindName(kind),
                    cell.harness.meanProcessNs(),
                    cell.probe.meanLatencyNs(),
                    (unsigned long long)cell.harness.forwarded());
    }

    std::printf("\nWith L3F the NetDIMM middlebox serves headers from "
                "nCache and never moves\npayloads across the host "
                "memory channel; with DPI it must, and the co-running\n"
                "application feels it -- the two ends of the Fig. "
                "12(b) spectrum.\n");
    return 0;
}
