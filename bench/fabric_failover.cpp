/**
 * @file
 * Fabric-failover campaign on the leaf-spine topology.
 *
 * Two NetDIMM nodes on different racks run a reliable iperf flow
 * while the fabric is abused two ways:
 *
 *  - flap cells: every leaf-spine uplink follows a deterministic
 *    up-down-up schedule generated at setup from its FaultDomain
 *    (flap count x down-duration sweep, all derived from the master
 *    seed). Every flap recovers inside the window, so the registry
 *    ledger must close: injected (down edges) == recovered.
 *  - degraded cells: k of the spines die mid-window and stay dead,
 *    measuring goodput retention vs the fraction of bisection
 *    capacity lost. The spines are revived before the drain so the
 *    ledger closes here too.
 *
 * Every cell checks the fault ledger and the fabric health report
 * against ground truth (liveUplinks must equal the number of links
 * whose up() is true, bisectionGbps must equal liveUplinks x line
 * rate), and the zero-flap row must reproduce the no-registry
 * baseline bit-for-bit (the failover machinery consumes no
 * randomness and perturbs no timing while idle). Exit status is
 * nonzero if any cell leaves an open ledger, an inconsistent health
 * report, an aborted stream, or an incomplete drain.
 *
 * `--short` runs a reduced sweep for CI smoke.
 *
 * Cells are independent simulations, so the grid runs on a
 * SweepRunner thread pool (`--jobs N`, default: hardware
 * concurrency); results are printed in grid order afterwards, so the
 * table is byte-identical regardless of the job count.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/SweepRunner.hh"
#include "net/Topology.hh"
#include "workload/IperfFlow.hh"

using namespace netdimm;

namespace
{

constexpr std::uint64_t kSeed = 7;

struct Cell
{
    std::uint32_t spines = 2;
    /** Flaps per uplink over the window (0 = no flapping). */
    std::uint32_t flapsPerLink = 0;
    double flapDurUs = 0.0;
    /** Spines killed at window/4 and revived only for the drain. */
    std::uint32_t spinesLost = 0;
};

struct Result
{
    double goodputGbps = 0.0;
    double meanLatUs = 0.0;
    std::uint64_t delivered = 0;
    std::uint64_t retx = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t dropsLinkDown = 0;
    std::uint64_t dropsNoPath = 0;
    std::uint64_t downEvents = 0;
    std::uint64_t injected = 0;
    std::uint64_t recovered = 0;
    bool ledgerClosed = true;
    bool bisectionOk = true;
    std::uint64_t unrecovered = 0;
    Tick endTick = 0;
};

/** health() vs ground truth: count up() links by hand. */
bool
checkBisection(PodFabricShard &topo, std::uint32_t expect_live)
{
    const PodFabricSpec &spec = topo.spec();
    std::uint32_t live = 0, total = 0;
    for (std::uint32_t l = 0; l < spec.totalLeaves(); ++l) {
        for (std::uint32_t s = 0; s < spec.spines; ++s) {
            ++total;
            if (topo.uplink(l, s).up())
                ++live;
        }
    }
    FabricHealth h = topo.health();
    return live == expect_live && h.liveUplinks == live &&
           h.totalUplinks == total &&
           h.bisectionGbps == double(live) * spec.eth.gbps;
}

Result
runCell(const Cell &c, bool with_registry, double windowUs)
{
    SystemConfig sys;
    sys.nic = NicKind::NetDimm;
    sys.seed = kSeed;

    EventQueue eq;
    Node tx(eq, "tx", sys, 0);
    Node rx(eq, "rx", sys, 1);
    // Two racks, one node each: node n sits on leaf n.
    PodFabricShard topo(eq, "fab",
                        PodFabricSpec{.pods = 1,
                                      .leavesPerPod = 2,
                                      .spines = c.spines,
                                      .nodesPerLeaf = 1,
                                      .eth = sys.eth});
    const PodFabricSpec &spec = topo.spec();
    tx.connectTo(topo.attach(0, tx.endpoint()));
    rx.connectTo(topo.attach(1, rx.endpoint()));

    Tick window = usToTicks(windowUs);

    std::unique_ptr<FaultRegistry> reg;
    if (with_registry) {
        reg = std::make_unique<FaultRegistry>(sys.seed);
        topo.attachFaultDomains(*reg);
    }

    // Flap schedules: each uplink divides the window into one slot
    // per flap and places the down edge at a position drawn from its
    // own FaultDomain, so the whole schedule is a pure function of
    // (master seed, link name) and replays exactly. The down window
    // always fits its slot, so every flap recovers before the drain.
    if (c.flapsPerLink > 0) {
        Tick dur = usToTicks(c.flapDurUs);
        Tick slot = window / c.flapsPerLink;
        ND_ASSERT(dur + 1 < slot);
        for (std::uint32_t l = 0; l < spec.totalLeaves(); ++l) {
            for (std::uint32_t s = 0; s < spec.spines; ++s) {
                FaultDomain &d =
                    reg->domain(topo.uplink(l, s).name());
                for (std::uint32_t f = 0; f < c.flapsPerLink; ++f) {
                    Tick jitter =
                        Tick(d.uniform() * double(slot - dur - 1));
                    topo.scheduleLinkFlap(l, s,
                                          Tick(f) * slot + jitter,
                                          dur);
                }
            }
        }
    }

    if (c.spinesLost > 0) {
        eq.schedule(window / 4, [&topo, &c] {
            for (std::uint32_t s = 0; s < c.spinesLost; ++s)
                topo.failSpine(s);
        });
    }

    IperfFlow flow(eq, "iperf", tx, rx, 1460, 32, 4);
    flow.enableReliable(sys.transport);
    flow.start();

    // Safety net: a failover bug that retransmits forever trips the
    // tick limit instead of wedging the campaign.
    eq.setTickLimit(usToTicks(windowUs * 50.0));
    eq.run(window);

    Result r;
    r.goodputGbps = double(flow.deliveredBytes()) * 8.0 /
                    ticksToSec(window) / 1e9;

    // Health/bisection consistency is judged at the end of the
    // measurement window, while the degraded cells still hold their
    // spines down.
    std::uint32_t expect_live =
        spec.totalLeaves() * (spec.spines - c.spinesLost);
    r.bisectionOk = checkBisection(topo, expect_live);

    // Revive everything, then drain: the ledger can only close once
    // the permanently-failed spines have booked their recoveries.
    for (std::uint32_t s = 0; s < c.spinesLost; ++s)
        topo.recoverSpine(s);
    flow.stop();
    eq.run();

    r.meanLatUs = flow.meanLatencyUs();
    r.delivered = flow.deliveredBytes();
    r.retx = flow.retransmissions();
    r.timeouts = flow.timeouts();
    r.dropsLinkDown = topo.dropsLinkDown();
    r.dropsNoPath = topo.dropsNoPath();
    for (std::uint32_t l = 0; l < spec.totalLeaves(); ++l)
        for (std::uint32_t s = 0; s < spec.spines; ++s)
            r.downEvents += topo.uplink(l, s).downEvents();
    if (reg) {
        r.injected = reg->injected();
        r.recovered = reg->recovered();
        r.ledgerClosed = reg->ledgerClosed();
    }
    r.endTick = eq.curTick();

    r.unrecovered += flow.abortedFlows();
    r.unrecovered += eq.deadlocksDetected();
    if (eq.tickLimitExceeded())
        ++r.unrecovered;
    if (flow.deliveredBytes() != flow.enqueuedBytes())
        ++r.unrecovered; // drain left bytes behind
    if (!r.ledgerClosed)
        ++r.unrecovered;
    if (!r.bisectionOk)
        ++r.unrecovered;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepCli cli = parseSweepCli(argc, argv, sweepShort | sweepJobs);
    const bool short_mode = cli.shortMode;
    const double windowUs = short_mode ? 600.0 : 2000.0;

    setQuiet(true);

    std::printf("=== Fabric failover: reliable iperf across a "
                "2-leaf fabric, %.0f us window, seed %llu ===\n\n",
                windowUs, static_cast<unsigned long long>(kSeed));
    std::printf("%7s %6s %6s %5s %9s %7s %9s %6s %5s %7s %7s %6s "
                "%7s %7s %6s\n",
                "spines", "flaps", "durUs", "lost", "goodput",
                "reten", "latency", "retx", "rto", "lnkDrop",
                "noPath", "down", "inj/rec", "ledger", "unrec");

    // Grid in print order: the registry-free baseline, the zero-flap
    // determinism check, the flap sweep, then graceful degradation.
    struct Spec
    {
        Cell cell;
        bool withRegistry;
    };
    Cell base_cell;
    std::vector<Spec> grid = {{base_cell, false}, {base_cell, true}};

    std::vector<std::uint32_t> spine_counts = {2, 4};
    std::vector<std::uint32_t> flap_counts = {1, 4};
    std::vector<double> durations = {20.0, 100.0};
    std::vector<std::uint32_t> losses = {1, 2, 3};
    if (short_mode) {
        spine_counts = {2};
        flap_counts = {2};
        durations = {20.0};
        losses = {1};
    }

    for (std::uint32_t spines : spine_counts) {
        for (std::uint32_t flaps : flap_counts) {
            for (double dur : durations) {
                Cell c;
                c.spines = spines;
                c.flapsPerLink = flaps;
                c.flapDurUs = dur;
                grid.push_back({c, true});
            }
        }
    }
    for (std::uint32_t lost : losses) {
        Cell c;
        c.spines = short_mode ? 2 : 4;
        c.spinesLost = lost;
        grid.push_back({c, true});
    }

    std::vector<SweepCell<Result>> cells;
    cells.reserve(grid.size());
    for (const Spec &s : grid) {
        char label[96];
        std::snprintf(label, sizeof(label),
                      "spines=%u flaps=%u dur=%.0f lost=%u%s",
                      s.cell.spines, s.cell.flapsPerLink,
                      s.cell.flapDurUs, s.cell.spinesLost,
                      s.withRegistry ? "" : " (baseline)");
        cells.push_back({label, [&s, windowUs] {
                             return runCell(s.cell, s.withRegistry,
                                            windowUs);
                         }});
    }

    SweepRunner runner(cli.jobs);
    std::vector<Result> results = runner.run(std::move(cells));

    const Result &base = results[0];
    bool all_ok = true;
    auto row = [&](const Cell &c, const Result &r) {
        double reten = base.goodputGbps > 0.0
                           ? r.goodputGbps / base.goodputGbps
                           : 0.0;
        std::printf("%7u %6u %6.0f %5u %7.2fGb %6.1f%% %7.1fus "
                    "%6llu %5llu %7llu %7llu %6llu %3llu/%-3llu "
                    "%7s %6llu\n",
                    c.spines, c.flapsPerLink, c.flapDurUs,
                    c.spinesLost, r.goodputGbps, reten * 100.0,
                    r.meanLatUs,
                    static_cast<unsigned long long>(r.retx),
                    static_cast<unsigned long long>(r.timeouts),
                    static_cast<unsigned long long>(r.dropsLinkDown),
                    static_cast<unsigned long long>(r.dropsNoPath),
                    static_cast<unsigned long long>(r.downEvents),
                    static_cast<unsigned long long>(r.injected),
                    static_cast<unsigned long long>(r.recovered),
                    r.ledgerClosed ? "closed" : "OPEN",
                    static_cast<unsigned long long>(r.unrecovered));
        if (r.unrecovered != 0)
            all_ok = false;
    };

    row(base_cell, base);

    // Zero-flap row with the registry attached: must be bit-identical
    // to the baseline, or the failover machinery perturbs fault-free
    // runs.
    const Result &zero = results[1];
    row(base_cell, zero);
    if (zero.delivered != base.delivered ||
        zero.endTick != base.endTick ||
        zero.goodputGbps != base.goodputGbps) {
        std::printf("  ERROR: zero-flap run diverged from baseline "
                    "(%llu vs %llu bytes, end tick %llu vs %llu)\n",
                    static_cast<unsigned long long>(zero.delivered),
                    static_cast<unsigned long long>(base.delivered),
                    static_cast<unsigned long long>(zero.endTick),
                    static_cast<unsigned long long>(base.endTick));
        all_ok = false;
    }

    // Flap sweep + graceful degradation rows, already computed in
    // grid order.
    for (std::size_t i = 2; i < grid.size(); ++i)
        row(grid[i].cell, results[i]);

    std::printf("\n%s\n",
                all_ok ? "All cells closed their fault ledger with a "
                         "consistent health report and a complete "
                         "drain."
                       : "FAILURES present -- see the 'ledger' and "
                         "'unrec' columns.");
    return all_ok ? 0 : 1;
}
