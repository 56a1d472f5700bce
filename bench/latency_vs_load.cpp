/**
 * @file
 * Extension experiment: one-way latency (mean and p99) as a function
 * of offered load, per NIC architecture. The paper's latency numbers
 * are zero-load; this sweep shows where each architecture's knee
 * sits -- NetDIMM keeps its advantage until the wire saturates
 * because its per-packet CPU work is smaller (the clone offloads the
 * copy), while the dNIC's RX cores saturate first.
 *
 * Each (kind, load) point is the shared offered-load cell
 * (OfferedLoadCell in src/workload/Scenarios.hh: a 1460 B Poisson
 * train on 8 flows over one link), an independent simulation, so the
 * grid runs on a SweepRunner thread pool (`--jobs N`, default:
 * hardware concurrency); results print in grid order, byte-identical
 * regardless of the job count.
 */

#include <cstdio>
#include <vector>

#include "harness/LatencyHistogram.hh"
#include "harness/SweepRunner.hh"
#include "workload/Scenarios.hh"

using namespace netdimm;

namespace
{

struct LoadPoint
{
    double meanUs;
    double p99Us;
    double deliveredGbps;
};

LoadPoint
runLoad(NicKind kind, double offered_gbps, int npackets)
{
    OfferedLoadCell cell(kind);

    // Sampled in raw ticks: the log-binned histogram is exact below
    // 2^7 and within ~1.6% above, and mean() carries no binning error.
    LatencyHistogram lat;
    std::uint64_t bytes = 0;
    Tick first = 0, last = 0;
    int seen = 0;
    int warmup = npackets / 10;
    cell.rx.setReceiveHandler([&](const PacketPtr &pkt, Tick t) {
        if (seen++ < warmup)
            return;
        if (first == 0)
            first = t;
        last = t;
        bytes += pkt->bytes;
        lat.sample(pkt->oneWayLatency());
    });
    cell.run(offered_gbps, npackets);

    LoadPoint p;
    p.meanUs = lat.mean() / double(tickPerUs);
    p.p99Us = lat.percentile(0.99) / double(tickPerUs);
    p.deliveredGbps = (last > first)
                          ? double(bytes) * 8.0 /
                                ticksToSec(last - first) / 1e9
                          : 0.0;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    SweepCli cli = parseSweepCli(argc, argv, sweepJobs);
    const int npackets = 2000;
    const std::vector<double> loads = {2, 8, 16, 24, 32, 36};
    const std::vector<NicKind> kinds = {
        NicKind::Discrete, NicKind::Integrated, NicKind::NetDimm};

    std::printf("=== Extension: latency vs offered load (1460B, 8 "
                "flows) ===\n");

    // Grid order: NIC kind major, offered load minor.
    std::vector<SweepCell<LoadPoint>> cells;
    cells.reserve(kinds.size() * loads.size());
    for (NicKind kind : kinds) {
        for (double g : loads) {
            char label[48];
            std::snprintf(label, sizeof(label), "%s %.0fGbps",
                          nicKindName(kind), g);
            cells.push_back({label, [kind, g, npackets] {
                                 return runLoad(kind, g, npackets);
                             }});
        }
    }

    SweepRunner runner(cli.jobs);
    std::vector<LoadPoint> results = runner.run(std::move(cells));

    std::size_t at = 0;
    for (NicKind kind : kinds) {
        std::printf("\n-- %s --\n", nicKindName(kind));
        std::printf("%12s %10s %10s %14s\n", "offered(Gbps)",
                    "mean(us)", "p99(us)", "delivered(Gbps)");
        for (double g : loads) {
            const LoadPoint &p = results[at++];
            std::printf("%12.0f %10.3f %10.3f %14.2f\n", g, p.meanUs,
                        p.p99Us, p.deliveredGbps);
        }
    }
    std::printf("\n(expected: flat latency until each architecture's "
                "knee; NetDIMM holds its\n absolute advantage across "
                "the sweep)\n");
    return 0;
}
