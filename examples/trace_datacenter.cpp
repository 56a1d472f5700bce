/**
 * @file
 * Datacenter trace replay example: replay one of the three cluster
 * traffic mixes between two servers across a clos fabric and print
 * the per-packet latency distribution -- a compact version of the
 * Fig. 12(a) methodology exposed as a command-line tool.
 *
 *   $ ./examples/trace_datacenter [database|webserver|hadoop] \
 *         [dnic|inic|netdimm] [switch_ns] [--stats] [--trace FILE]
 *
 * With --trace FILE the packet stream is read from a trace file
 * (format: "<arrival_ns> <bytes> <locality>", see TraceFile.hh)
 * instead of the synthetic cluster generator -- e.g. a parse of the
 * public Facebook dataset. A malformed argument prints a usage line
 * and exits 2.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <iostream>

#include "harness/LatencyHistogram.hh"
#include "net/Switch.hh"
#include "kernel/Node.hh"
#include "workload/TraceFile.hh"
#include "workload/TraceGen.hh"

using namespace netdimm;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: trace_datacenter [database|webserver|hadoop] "
                 "[dnic|inic|netdimm] [switch_ns] [--stats] "
                 "[--trace FILE]\n");
    return 2;
}

bool
parseCluster(const char *s, ClusterType &out)
{
    for (ClusterType c : {ClusterType::Database, ClusterType::Webserver,
                          ClusterType::Hadoop}) {
        if (std::strcmp(s, clusterName(c)) == 0) {
            out = c;
            return true;
        }
    }
    return false;
}

bool
parseNic(const char *s, NicKind &out)
{
    static const struct
    {
        const char *name;
        NicKind kind;
    } nics[] = {{"dnic", NicKind::Discrete},
                {"inic", NicKind::Integrated},
                {"netdimm", NicKind::NetDimm}};
    for (const auto &n : nics) {
        if (std::strcmp(s, n.name) == 0) {
            out = n.kind;
            return true;
        }
    }
    return false;
}

/** Parse a whole string as a finite, non-negative double. */
bool
parseNs(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && std::isfinite(out) && out >= 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    ClusterType cluster = ClusterType::Webserver;
    NicKind kind = NicKind::NetDimm;
    double switch_ns = 100.0;
    bool stats = false;
    const char *trace_path = nullptr;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--stats") == 0) {
            stats = true;
        } else if (std::strcmp(a, "--trace") == 0) {
            if (++i == argc)
                return usage();
            trace_path = argv[i];
        } else if (positional == 0) {
            if (!parseCluster(a, cluster))
                return usage();
            ++positional;
        } else if (positional == 1) {
            if (!parseNic(a, kind))
                return usage();
            ++positional;
        } else if (positional == 2) {
            if (!parseNs(a, switch_ns))
                return usage();
            ++positional;
        } else {
            return usage();
        }
    }
    const int npackets = 1200;

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

    LatencyHistogram lat; // ticks
    rx.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        lat.sample(pkt->oneWayLatency());
    });

    // Packet stream: a trace file if given, else synthesized from
    // the cluster's published distributions.
    std::vector<TraceRecord> records;
    if (trace_path)
        records = TraceFile::load(trace_path);
    if (records.empty()) {
        TraceGen gen(cluster, 5.0, 2026);
        records = TraceFile::synthesize(gen, npackets);
    }

    Tick t = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &rec = records[i];
        t += rec.interArrival;
        eq.schedule(t, [&, rec, i] {
            PacketPtr pkt =
                tx.makeTxPacket(rec.bytes, rx.id(), 1 + (i % 8));
            pkt->locality = rec.locality;
            tx.sendPacket(pkt);
        });
    }
    eq.run();

    std::printf("cluster=%s nic=%s switch=%.0fns packets=%llu\n\n",
                clusterName(cluster), nicKindName(kind), switch_ns,
                (unsigned long long)lat.count());
    auto us = [](double ticks) { return ticks / double(tickPerUs); };
    std::printf("one-way latency  mean %7.3f us\n", us(lat.mean()));
    std::printf("                 p50  %7.3f us\n",
                us(lat.percentile(0.5)));
    std::printf("                 p90  %7.3f us\n",
                us(lat.percentile(0.9)));
    std::printf("                 p99  %7.3f us\n",
                us(lat.percentile(0.99)));
    std::printf("                 max  %7.3f us\n",
                us(double(lat.maxValue())));

    if (stats) {
        std::printf("\n");
        rx.printStats(std::cout);
    }
    return 0;
}
