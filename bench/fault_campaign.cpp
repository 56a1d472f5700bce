/**
 * @file
 * Fault-injection campaign over the full NetDIMM node stack.
 *
 * Two NetDIMM nodes run a reliable iperf flow across one EthLink
 * while one fault class at a time is injected at increasing rates:
 *
 *  - link     : frames dropped / corrupted on the wire;
 *  - ecc      : correctable (in-line scrub) and uncorrectable
 *               (poisoned line -> TX frame drop) ECC errors in the
 *               NetDIMM local memory controller;
 *  - device   : nNIC DMA drops and device hangs recovered by the
 *               driver's e1000-style TX watchdog;
 *  - rowclone : in-memory clones aborting and falling back to the
 *               CopyEngine.
 *
 * For each (class, rate) cell the campaign reports goodput over a
 * fixed window, retention vs the fault-free baseline, the fault
 * ledger (injected/recovered), retransmissions, watchdog activity and
 * the count of *unrecovered* failures: aborted flows, devices still
 * hung after the drain, simulation-health deadlocks and tick-limit
 * hits. The zero-rate row doubles as a determinism check: with every
 * probability at 0 the run must reproduce the fault-free baseline
 * exactly (the framework consumes no randomness that perturbs
 * timing).
 *
 * Cells are independent simulations, so the grid runs on a
 * SweepRunner thread pool (`--jobs N`, default: hardware
 * concurrency); results are collected and printed in grid order, so
 * the table is byte-identical regardless of the job count.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/SweepRunner.hh"
#include "net/Link.hh"
#include "transport/FaultInjector.hh"
#include "workload/IperfFlow.hh"

using namespace netdimm;

namespace
{

constexpr std::uint64_t kSeed = 7;

struct Result
{
    double goodputGbps = 0.0;
    double meanLatUs = 0.0;
    std::uint64_t injected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t retx = 0;
    std::uint64_t hangRecoveries = 0;
    std::uint64_t skbsDropped = 0;
    double recoveryUs = 0.0;
    std::uint64_t unrecovered = 0;
};

Result
runOne(const std::string &cls, double rate, double windowUs)
{
    SystemConfig sys;
    sys.nic = NicKind::NetDimm;
    sys.seed = kSeed;

    FaultModelConfig &fc = sys.faults;
    if (cls != "baseline")
        fc.enabled = true;
    double linkDrop = 0.0, linkCorrupt = 0.0;
    if (cls == "link") {
        linkDrop = rate;
        linkCorrupt = rate / 4.0;
    } else if (cls == "ecc") {
        fc.eccCorrectableProb = rate;
        fc.eccUncorrectableProb = rate / 64.0;
    } else if (cls == "device") {
        fc.dmaDropProb = rate;
        fc.deviceHangProb = rate / 16.0;
    } else if (cls == "rowclone") {
        fc.rowCloneFailProb = rate;
    }
    // cls == "zero": enabled with every probability at 0.

    EventQueue eq;
    Node tx(eq, "tx", sys, 0);
    Node rx(eq, "rx", sys, 1);
    EthLink link(eq, "wire", sys.eth);
    connectNodes(link, tx, rx);

    // Link faults ride the generic framework: the injector's domain
    // comes from the tx node's registry, so the wire's schedule
    // derives from the same master seed as every other layer.
    std::unique_ptr<FaultInjector> inj;
    if (linkDrop > 0.0 || linkCorrupt > 0.0) {
        inj = std::make_unique<FaultInjector>(
            *tx.faults(), "wire.link", linkDrop, linkCorrupt);
        link.setFaultHook(inj.get());
    }

    IperfFlow flow(eq, "iperf", tx, rx, 1460, 32, 2);
    flow.enableReliable(sys.transport);
    flow.start();

    Tick window = usToTicks(windowUs);
    // Drain safety net: a recovery bug that keeps retransmitting
    // forever trips the tick limit instead of wedging the campaign.
    eq.setTickLimit(usToTicks(windowUs * 50.0));
    eq.run(window);

    Result r;
    r.goodputGbps = double(flow.deliveredBytes()) * 8.0 /
                    ticksToSec(window) / 1e9;

    flow.stop();
    eq.run();

    // Link faults are absorbed end-to-end: once the drain finishes
    // with no aborted stream, every dropped/corrupted frame was
    // retransmitted and the wire domain's ledger can be closed.
    if (inj && flow.abortedFlows() == 0) {
        FaultDomain *d = inj->domain();
        if (d->injected() > d->recovered())
            d->noteRecovered(d->injected() - d->recovered());
    }

    r.meanLatUs = flow.meanLatencyUs();
    r.retx = flow.retransmissions();
    for (Node *n : {&tx, &rx}) {
        if (FaultRegistry *reg = n->faults()) {
            r.injected += reg->injected();
            r.recovered += reg->recovered();
            r.unrecovered += reg->unrecovered();
        }
        r.hangRecoveries += n->driver().txHangRecoveries();
        r.skbsDropped += n->driver().skbsDroppedOnReset();
        if (n->driver().recoveryLatencyUs().count() > 0)
            r.recoveryUs = std::max(
                r.recoveryUs, n->driver().recoveryLatencyUs().mean());
        if (n->netdimm()->hung())
            ++r.unrecovered;
    }
    r.unrecovered += flow.abortedFlows();
    r.unrecovered += eq.deadlocksDetected();
    if (eq.tickLimitExceeded())
        ++r.unrecovered;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepCli cli = parseSweepCli(argc, argv);
    const double windowUs = cli.shortMode ? 800.0 : 2000.0;

    setQuiet(true);

    std::printf("=== Fault campaign: reliable iperf between two "
                "NetDIMM nodes, %.0f us window, seed %llu ===\n\n",
                windowUs, static_cast<unsigned long long>(kSeed));

    // The whole grid, in print order. Index 0 is the fault-free
    // baseline every retention figure is computed against; index 1 is
    // the zero-rate determinism check.
    struct Spec
    {
        std::string cls;
        double rate;
    };
    std::vector<Spec> grid = {{"baseline", 0.0}, {"zero", 0.0}};
    std::vector<double> rates = {0.001, 0.01};
    if (cli.shortMode)
        rates = {0.01};
    for (const std::string &cls :
         {std::string("link"), std::string("ecc"),
          std::string("device"), std::string("rowclone")}) {
        for (double rate : rates)
            grid.push_back({cls, rate});
    }

    std::vector<SweepCell<Result>> cells;
    cells.reserve(grid.size());
    for (const Spec &s : grid) {
        char label[64];
        std::snprintf(label, sizeof(label), "%s rate=%.3f",
                      s.cls.c_str(), s.rate);
        // Per the cell isolation contract the factory captures only
        // its own spec (by const ref into the immutable grid) and the
        // shared window constant.
        cells.push_back({label, [&s, windowUs] {
                             return runOne(s.cls, s.rate, windowUs);
                         }});
    }

    SweepRunner runner(cli.jobs);
    std::vector<Result> results = runner.run(std::move(cells));

    const Result &base = results[0];

    std::printf("%9s %8s %9s %7s %9s %9s %6s %6s %8s %8s %6s\n",
                "class", "rate", "goodput", "reten", "latency",
                "injected", "recov", "retx", "wdHangs", "recovUs",
                "unrec");

    auto row = [&](const std::string &cls, double rate,
                   const Result &r) {
        double reten = base.goodputGbps > 0.0
                           ? r.goodputGbps / base.goodputGbps
                           : 0.0;
        std::printf("%9s %7.3f%% %7.2fGb %6.1f%% %7.1fus %9llu "
                    "%6llu %6llu %8llu %7.1f %6llu\n",
                    cls.c_str(), rate * 100.0, r.goodputGbps,
                    reten * 100.0, r.meanLatUs,
                    static_cast<unsigned long long>(r.injected),
                    static_cast<unsigned long long>(r.recovered),
                    static_cast<unsigned long long>(r.retx),
                    static_cast<unsigned long long>(
                        r.hangRecoveries),
                    r.recoveryUs,
                    static_cast<unsigned long long>(r.unrecovered));
    };

    row("baseline", 0.0, base);

    const Result &zero = results[1];
    row("zero", 0.0, zero);
    if (zero.goodputGbps != base.goodputGbps)
        std::printf("  WARNING: zero-rate run diverged from baseline "
                    "(%.4f vs %.4f Gbps) -- the fault framework "
                    "perturbed timing\n",
                    zero.goodputGbps, base.goodputGbps);

    bool all_recovered = true;
    for (std::size_t i = 2; i < grid.size(); ++i) {
        row(grid[i].cls, grid[i].rate, results[i]);
        if (results[i].unrecovered != 0)
            all_recovered = false;
    }

    std::printf("\n%s\n",
                all_recovered
                    ? "All injected faults recovered "
                      "(unrecovered == 0 in every cell)."
                    : "UNRECOVERED failures present -- see the "
                      "'unrec' column.");
    return all_recovered ? 0 : 1;
}
