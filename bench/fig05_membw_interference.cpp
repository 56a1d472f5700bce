/**
 * @file
 * Fig. 5: iperf TCP bandwidth under memory pressure. An MLC-style
 * injector loads the receiving node's memory system with read/write
 * pairs (R:W = 1) at a swept inter-request delay; the self-clocking
 * iperf flow between two dNIC servers slows down as its RX-side
 * copies and DMA contend with the injected traffic. The paper
 * measures a collapse to ~27.9% of the uncontended bandwidth at
 * maximum pressure (~15.1 GB/s per channel).
 */

#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "net/Link.hh"
#include "workload/IperfFlow.hh"
#include "workload/MlcInjector.hh"

using namespace netdimm;

namespace
{

struct Result
{
    double delayNs;
    double goodputGbps;
    double mlcGBps;
};

Result
runOne(double delay_ns, Tick sim_time)
{
    SystemConfig cfg;
    cfg.nic = NicKind::Discrete;

    EventQueue eq;
    Node tx(eq, "tx", cfg, 0);
    Node rx(eq, "rx", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    link.connect(tx.endpoint(), rx.endpoint());
    tx.connectTo(link);
    rx.connectTo(link);

    IperfFlow flow(eq, "iperf", tx, rx, 1460, 64, 1);

    // Several injector "threads" pressure the receiver's channels
    // (MLC runs one loaded-latency thread per core).
    std::vector<std::unique_ptr<MlcInjector>> mlcs;
    bool inject = delay_ns >= 0.0;
    if (inject) {
        for (int i = 0; i < 6; ++i) {
            mlcs.push_back(std::make_unique<MlcInjector>(
                eq, "mlc" + std::to_string(i), rx,
                nsToTicks(delay_ns), 4096, 32));
            mlcs.back()->start();
        }
    }
    flow.start();
    eq.run(sim_time);

    Result r;
    r.delayNs = delay_ns;
    r.goodputGbps = flow.goodputGbps();
    r.mlcGBps = 0.0;
    for (auto &m : mlcs)
        r.mlcGBps += m->achievedGBps();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    requireNoArguments(argc, argv);
    setQuiet(true);
    const Tick sim_time = usToTicks(400);

    // Negative delay = MLC off (the uncontended baseline).
    std::vector<double> delays = {-1, 800, 400, 200, 100,
                                  50, 20,  10,  5,   0};

    std::printf("=== Fig. 5: iperf bandwidth vs. memory pressure "
                "(dNIC, 40GbE) ===\n\n");
    std::printf("%12s %12s %14s %12s\n", "MLC delay", "iperf(Gbps)",
                "MLC load(GB/s)", "vs no-MLC");

    double baseline = 0.0;
    for (double d : delays) {
        Result r = runOne(d, sim_time);
        if (d < 0)
            baseline = r.goodputGbps;
        std::printf("%12s %12.2f %14.2f %11.1f%%\n",
                    d < 0 ? "off" : std::to_string(int(d)).append("ns")
                                        .c_str(),
                    r.goodputGbps, r.mlcGBps,
                    baseline > 0.0
                        ? 100.0 * r.goodputGbps / baseline
                        : 100.0);
    }
    std::printf("\n(paper: ~27.9%% of uncontended bandwidth at "
                "maximum pressure)\n");
    return 0;
}
