/**
 * @file
 * NFV middlebox example: a node runs an L3 forwarder or a deep
 * packet inspector over a stream of datacenter traffic while a
 * latency-sensitive application shares its memory system -- the
 * Sec. 5.3 scenario, runnable as a small standalone program.
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

#include "net/Switch.hh"
#include "workload/MemLatencyProbe.hh"
#include "workload/NfHarness.hh"
#include "workload/TraceGen.hh"

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
        SystemConfig cfg;
        cfg.nic = kind;

        EventQueue eq;
        Node gen(eq, "gen", cfg, 0);
        Node mbox(eq, "mbox", cfg, 1);
        ClosFabric fabric(eq, "fabric", cfg.eth);
        fabric.attach(0, gen.endpoint());
        fabric.attach(1, mbox.endpoint());
        gen.setWire([&](const PacketPtr &p) { fabric.deliver(p); });
        mbox.setWire([&](const PacketPtr &p) { fabric.deliver(p); });

        NfHarness harness(eq, "nf", mbox, nf);
        MemLatencyProbe probe(eq, "probe", mbox, nsToTicks(20));
        probe.warmUp();
        probe.start();
        Tick traffic_start = usToTicks(150);
        eq.schedule(traffic_start, [&probe] { probe.resetStats(); });

        TraceGen tg(ClusterType::Webserver, gbps, 99);
        Tick t = traffic_start;
        for (int i = 0; i < npackets; ++i) {
            TraceRecord rec = tg.next();
            t += rec.interArrival;
            eq.schedule(t, [&gen, &mbox, rec, i] {
                gen.sendPacket(gen.makeTxPacket(rec.bytes, mbox.id(),
                                                1 + (i % 8)));
            });
        }
        eq.run(t + usToTicks(50));

        std::printf("%-10s %16.1f %18.1f %16llu\n", nicKindName(kind),
                    harness.meanProcessNs(), probe.meanLatencyNs(),
                    (unsigned long long)harness.forwarded());
    }

    std::printf("\nWith L3F the NetDIMM middlebox serves headers from "
                "nCache and never moves\npayloads across the host "
                "memory channel; with DPI it must, and the co-running\n"
                "application feels it -- the two ends of the Fig. "
                "12(b) spectrum.\n");
    return 0;
}
