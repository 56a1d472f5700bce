/**
 * @file
 * Tests for the parallel sweep harness (src/harness/SweepRunner.hh)
 * and the instance-scoped simulation state it depends on:
 *
 *  - jobs-invariance: the serialized result table of a mini sweep is
 *    byte-identical at jobs=1 and jobs=4 (the tentpole determinism
 *    guarantee);
 *  - a throwing cell surfaces as SweepCellError carrying its grid
 *    coordinates while every other cell still completes;
 *  - running the SAME cell twice in one process yields identical
 *    stats (regression for the old process-global packet id counter);
 *  - packet ids are minted per EventQueue, starting at 1;
 *  - cellsExecuted() counts every cell of every run(), failed ones
 *    included;
 *  - workers start lazily, never more than the cells queued so far;
 *  - the shared sweep CLI and the perf-gate flags parse strictly.
 */

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "PerfGate.hh"
#include "harness/SweepRunner.hh"
#include "kernel/Node.hh"
#include "net/Link.hh"
#include "net/Packet.hh"

using namespace netdimm;

namespace
{

struct MiniResult
{
    std::uint64_t bytes = 0;
    double meanUs = 0.0;
    std::uint64_t firstId = 0;
    std::uint64_t idsMinted = 0;
};

/**
 * A small but real simulation cell: two nodes, one link, a fixed
 * paced packet train. Deterministic given (kind, npackets), and
 * built entirely inside the factory per the cell isolation contract.
 */
MiniResult
runMiniCell(NicKind kind, int npackets)
{
    SystemConfig cfg;
    cfg.nic = kind;

    EventQueue eq;
    Node tx(eq, "tx", cfg, 0);
    Node rx(eq, "rx", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    connectNodes(link, tx, rx);

    MiniResult r;
    double sum_us = 0.0;
    int n = 0;
    rx.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        if (r.firstId == 0)
            r.firstId = pkt->id;
        r.bytes += pkt->bytes;
        sum_us += ticksToUs(pkt->oneWayLatency());
        ++n;
    });

    Tick t = 0;
    for (int i = 0; i < npackets; ++i) {
        t += usToTicks(1.0);
        eq.schedule(t, [&tx, &rx, i] {
            tx.sendPacket(tx.makeTxPacket(1460, rx.id(), 1 + (i % 4)));
        });
    }
    eq.run();

    r.meanUs = n ? sum_us / n : 0.0;
    r.idsMinted = eq.packetIdsAllocated();
    return r;
}

std::vector<SweepCell<MiniResult>>
miniGrid()
{
    std::vector<SweepCell<MiniResult>> cells;
    for (NicKind kind : {NicKind::Discrete, NicKind::Integrated,
                         NicKind::NetDimm}) {
        for (int n : {40, 80}) {
            char label[48];
            std::snprintf(label, sizeof(label), "%s n=%d",
                          nicKindName(kind), n);
            cells.push_back(
                {label, [kind, n] { return runMiniCell(kind, n); }});
        }
    }
    return cells;
}

/** Exactly what a bench would print: rows in grid order. */
std::string
serialize(const std::vector<MiniResult> &rows)
{
    std::string out;
    for (const MiniResult &r : rows) {
        char line[128];
        std::snprintf(line, sizeof(line), "%llu %.9f %llu %llu\n",
                      static_cast<unsigned long long>(r.bytes),
                      r.meanUs,
                      static_cast<unsigned long long>(r.firstId),
                      static_cast<unsigned long long>(r.idsMinted));
        out += line;
    }
    return out;
}

} // namespace

TEST(SweepRunner, JobsInvarianceTablesAreByteIdentical)
{
    setQuiet(true);
    SweepRunner seq(1);
    SweepRunner par(4);
    ASSERT_EQ(seq.jobs(), 1u);
    ASSERT_EQ(par.jobs(), 4u);

    std::string table1 = serialize(seq.run(miniGrid()));
    std::string table4 = serialize(par.run(miniGrid()));
    EXPECT_EQ(table1, table4);

    // And the table is non-trivial: packets flowed in every cell.
    EXPECT_EQ(std::count(table1.begin(), table1.end(), '\n'), 6);
    EXPECT_NE(table1.find(" 1 "), std::string::npos);
    // Every cell ran exactly once, however many workers shared it.
    EXPECT_EQ(seq.cellsExecuted(), 6u);
    EXPECT_EQ(par.cellsExecuted(), 6u);
}

TEST(SweepRunner, StartsNoMoreThreadsThanQueuedCells)
{
    SweepRunner runner(64);
    EXPECT_EQ(runner.jobs(), 64u);
    EXPECT_EQ(runner.threadsStarted(), 0u);

    auto grid = [](int n) {
        std::vector<SweepCell<int>> cells;
        for (int i = 0; i < n; ++i)
            cells.push_back({"cell", [i] { return i; }});
        return cells;
    };
    EXPECT_EQ(runner.run(grid(3)), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(runner.threadsStarted(), 3u);
    // Later runs add workers only as the cells queued so far grow.
    runner.run(grid(2));
    EXPECT_EQ(runner.threadsStarted(), 5u);
    runner.run(std::vector<SweepCell<int>>{});
    EXPECT_EQ(runner.threadsStarted(), 5u);

    // The limit still holds once the grid outgrows it.
    SweepRunner two(2);
    two.run(grid(6));
    EXPECT_EQ(two.threadsStarted(), 2u);
    EXPECT_EQ(two.cellsExecuted(), 6u);
}

TEST(SweepRunner, ThrowingCellReportsGridCoordinates)
{
    setQuiet(true);
    std::atomic<int> completed{0};

    std::vector<SweepCell<int>> cells;
    for (int i = 0; i < 8; ++i) {
        char label[32];
        std::snprintf(label, sizeof(label), "cell-%d", i);
        cells.push_back({label, [i, &completed]() -> int {
                             if (i == 3)
                                 throw std::runtime_error("boom-3");
                             if (i == 5)
                                 throw std::runtime_error("boom-5");
                             ++completed;
                             return i;
                         }});
    }

    SweepRunner runner(4);
    bool threw = false;
    try {
        runner.run(std::move(cells));
    } catch (const SweepCellError &e) {
        threw = true;
        // The FIRST failing cell in grid order, no matter which
        // worker hit its exception first.
        EXPECT_EQ(e.index(), 3u);
        EXPECT_EQ(e.label(), "cell-3");
        EXPECT_NE(std::string(e.what()).find("boom-3"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("cell-3"),
                  std::string::npos);
    }
    EXPECT_TRUE(threw);
    // The failure did not tear down the sweep: the other six cells
    // all ran to completion.
    EXPECT_EQ(completed.load(), 6);
    EXPECT_EQ(runner.cellsExecuted(), 8u);
}

TEST(SweepRunner, SameCellTwiceInProcessIsIdentical)
{
    // Regression for the process-global packet id counter: a second
    // in-process run of the same cell used to see different packet
    // ids. With ids minted per EventQueue the two runs are
    // indistinguishable, firstId included.
    setQuiet(true);
    MiniResult a = runMiniCell(NicKind::NetDimm, 60);
    MiniResult b = runMiniCell(NicKind::NetDimm, 60);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.meanUs, b.meanUs);
    EXPECT_EQ(a.firstId, b.firstId);
    EXPECT_EQ(a.idsMinted, b.idsMinted);
    // And the first id of a fresh simulation is 1.
    EXPECT_EQ(a.firstId, 1u);
}

TEST(SweepRunner, PacketIdsArePerEventQueue)
{
    EventQueue eq1;
    EventQueue eq2;
    PacketPtr a1 = makePacket(eq1, 64, 0, 1);
    PacketPtr a2 = makePacket(eq1, 64, 0, 1);
    PacketPtr b1 = makePacket(eq2, 64, 0, 1);
    EXPECT_EQ(a1->id, 1u);
    EXPECT_EQ(a2->id, 2u);
    EXPECT_EQ(b1->id, 1u);
    EXPECT_EQ(eq1.packetIdsAllocated(), 2u);
    EXPECT_EQ(eq2.packetIdsAllocated(), 1u);
}

TEST(SweepRunner, ParseSweepCli)
{
    const unsigned takes = sweepShort | sweepJobs;
    // Valid: --jobs N, --short, and an allowlisted extra flag.
    SweepCli cli;
    std::string err;
    ASSERT_TRUE(tryParseSweepCli({"--jobs", "3", "--short",
                                  "--reliable"}, takes,
                                 {"--reliable"}, cli, err))
        << err;
    EXPECT_EQ(cli.jobs, 3u);
    EXPECT_TRUE(cli.shortMode);
    ASSERT_EQ(cli.rest.size(), 1u);
    EXPECT_EQ(cli.rest[0], "--reliable");

    // Defaults: no args -> hardware concurrency, long mode.
    SweepCli def;
    ASSERT_TRUE(tryParseSweepCli({}, takes, {}, def, err)) << err;
    EXPECT_GE(def.jobs, 1u);
    EXPECT_FALSE(def.shortMode);
    EXPECT_TRUE(def.rest.empty());
}

TEST(SweepRunner, ParseSweepCliRejectsBadJobs)
{
    const unsigned takes = sweepJobs;
    SweepCli cli;
    std::string err;

    EXPECT_FALSE(tryParseSweepCli({"--jobs", "0"}, takes, {}, cli, err));
    EXPECT_NE(err.find("--jobs"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--jobs", "-4"}, takes, {}, cli, err));
    EXPECT_NE(err.find("positive"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--jobs", "two"}, takes, {}, cli, err));
    EXPECT_NE(err.find("two"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--jobs", "3x"}, takes, {}, cli, err));

    EXPECT_FALSE(tryParseSweepCli({"--jobs"}, takes, {}, cli, err));
    EXPECT_NE(err.find("requires a value"), std::string::npos);
}

TEST(SweepRunner, ParseSweepCliShards)
{
    const unsigned takes = sweepShort | sweepJobs | sweepShards;
    // --shards N lands in cli.shards; absence keeps the 0 sentinel
    // (the PDES benches pick their own sweep in that case).
    SweepCli cli;
    std::string err;
    ASSERT_TRUE(tryParseSweepCli({"--shards", "4"}, takes, {}, cli, err))
        << err;
    EXPECT_EQ(cli.shards, 4u);

    SweepCli def;
    ASSERT_TRUE(tryParseSweepCli({}, takes, {}, def, err)) << err;
    EXPECT_EQ(def.shards, 0u);

    // Composes with the rest of the surface.
    SweepCli both;
    ASSERT_TRUE(tryParseSweepCli({"--jobs", "2", "--shards", "8",
                                  "--short"}, takes,
                                 {}, both, err))
        << err;
    EXPECT_EQ(both.jobs, 2u);
    EXPECT_EQ(both.shards, 8u);
    EXPECT_TRUE(both.shortMode);
}

TEST(SweepRunner, ParseSweepCliRejectsBadShards)
{
    const unsigned takes = sweepShards;
    // Same reject semantics as --jobs: 0, negative, non-numeric,
    // trailing garbage, and a missing value are all hard errors.
    SweepCli cli;
    std::string err;

    EXPECT_FALSE(tryParseSweepCli({"--shards", "0"}, takes, {}, cli, err));
    EXPECT_NE(err.find("--shards"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--shards", "-2"}, takes, {}, cli, err));
    EXPECT_NE(err.find("positive"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--shards", "four"}, takes, {}, cli,
                                  err));
    EXPECT_NE(err.find("four"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--shards", "4x"}, takes, {}, cli, err));

    EXPECT_FALSE(tryParseSweepCli({"--shards"}, takes, {}, cli, err));
    EXPECT_NE(err.find("requires a value"), std::string::npos);
}

TEST(SweepRunner, ParseSweepCliRejectsOutOfRangeCounts)
{
    const unsigned takes = sweepJobs | sweepShards;
    // Parser only: no runner is built, so no thread starts. A count
    // past unsigned range is an error, not a truncation (4294967297
    // used to mean 1, and a strtol overflow 4294967295).
    for (const char *flag : {"--jobs", "--shards"}) {
        SweepCli cli;
        std::string err;
        for (const char *v : {"4294967296", "4294967297",
                              "99999999999999999999999"}) {
            EXPECT_FALSE(tryParseSweepCli({flag, v}, takes, {}, cli, err))
                << flag << " " << v;
            EXPECT_NE(err.find("positive integer"), std::string::npos)
                << err;
            EXPECT_NE(err.find(v), std::string::npos) << err;
        }
        // The largest unsigned value still parses exactly.
        ASSERT_TRUE(
            tryParseSweepCli({flag, "4294967295"}, takes, {}, cli, err))
            << err;
        EXPECT_EQ(std::string(flag) == "--jobs" ? cli.jobs
                                                : cli.shards,
                  4294967295u);
    }
}

TEST(SweepRunner, ParseSweepCliFidelity)
{
    const unsigned takes = sweepShort | sweepJobs | sweepFidelity;
    // Each spelling lands in cli.fidelity; absence keeps Packet (the
    // byte-identical default every golden is produced in).
    SweepCli cli;
    std::string err;
    ASSERT_TRUE(tryParseSweepCli({"--fidelity", "hybrid"}, takes, {}, cli,
                                 err))
        << err;
    EXPECT_EQ(cli.fidelity, FidelityMode::Hybrid);

    ASSERT_TRUE(tryParseSweepCli({"--fidelity", "fluid"}, takes, {}, cli,
                                 err))
        << err;
    EXPECT_EQ(cli.fidelity, FidelityMode::Fluid);

    ASSERT_TRUE(tryParseSweepCli({"--fidelity", "packet"}, takes, {}, cli,
                                 err))
        << err;
    EXPECT_EQ(cli.fidelity, FidelityMode::Packet);

    SweepCli def;
    ASSERT_TRUE(tryParseSweepCli({}, takes, {}, def, err)) << err;
    EXPECT_EQ(def.fidelity, FidelityMode::Packet);

    // Composes with the rest of the shared sweep surface.
    SweepCli both;
    ASSERT_TRUE(tryParseSweepCli({"--fidelity", "fluid", "--jobs",
                                  "2", "--short"}, takes,
                                 {}, both, err))
        << err;
    EXPECT_EQ(both.fidelity, FidelityMode::Fluid);
    EXPECT_EQ(both.jobs, 2u);
    EXPECT_TRUE(both.shortMode);

    EXPECT_STREQ(fidelityModeName(FidelityMode::Packet), "packet");
    EXPECT_STREQ(fidelityModeName(FidelityMode::Hybrid), "hybrid");
    EXPECT_STREQ(fidelityModeName(FidelityMode::Fluid), "fluid");
}

TEST(SweepRunner, ParseSweepCliRejectsBadFidelity)
{
    const unsigned takes = sweepFidelity;
    // Unknown mode names, a missing value, and case variants are
    // hard errors naming the offending token, like --jobs/--shards.
    SweepCli cli;
    std::string err;

    EXPECT_FALSE(tryParseSweepCli({"--fidelity", "analog"}, takes, {}, cli,
                                  err));
    EXPECT_NE(err.find("analog"), std::string::npos);
    EXPECT_NE(err.find("--fidelity"), std::string::npos);

    EXPECT_FALSE(tryParseSweepCli({"--fidelity", "Packet"}, takes, {}, cli,
                                  err));

    EXPECT_FALSE(tryParseSweepCli({"--fidelity"}, takes, {}, cli, err));
    EXPECT_NE(err.find("requires a value"), std::string::npos);
}

TEST(SweepRunner, ParseSweepCliRejectsUnknownFlags)
{
    const unsigned takes =
        sweepShort | sweepJobs | sweepShards | sweepFidelity;
    SweepCli cli;
    std::string err;

    EXPECT_FALSE(tryParseSweepCli({"--bogus"}, takes, {}, cli, err));
    EXPECT_NE(err.find("--bogus"), std::string::npos);

    // Extra flags are an allowlist, not a prefix match.
    EXPECT_FALSE(tryParseSweepCli({"--reliable2"}, takes, {"--reliable"},
                                  cli, err));

    // Stray positional arguments are rejected too.
    EXPECT_FALSE(tryParseSweepCli({"12"}, takes, {}, cli, err));

    // The perf-gate flags belong to bench/PerfGate.hh, not to the
    // shared sweep surface.
    EXPECT_FALSE(tryParseSweepCli({"--tolerance", "0.1"}, takes, {}, cli, err));
}

TEST(SweepRunner, ParseSweepCliRejectsUndeclaredSharedFlags)
{
    // A bench declares the shared flags it reads; any other shared
    // flag is an unknown argument, not a silently ignored one.
    SweepCli cli;
    std::string err;
    EXPECT_FALSE(tryParseSweepCli({"--short"}, sweepJobs, {}, cli, err));
    EXPECT_NE(err.find("--short"), std::string::npos);
    EXPECT_FALSE(tryParseSweepCli({"--jobs", "2"},
                                  sweepShort | sweepShards, {}, cli, err));
    EXPECT_NE(err.find("--jobs"), std::string::npos);
    EXPECT_FALSE(
        tryParseSweepCli({"--shards", "2"}, sweepJobs, {}, cli, err));
    EXPECT_FALSE(tryParseSweepCli({"--fidelity", "fluid"},
                                  sweepShort | sweepJobs, {}, cli, err));

    // The usage line lists only the declared flags.
    EXPECT_EQ(sweepUsage(sweepJobs, {"--reliable"}),
              " [--jobs N] [--reliable]");
    EXPECT_EQ(sweepUsage(sweepShort | sweepShards, {}),
              " [--short] [--shards N]");
    EXPECT_EQ(sweepUsage(sweepFidelity, {}),
              " [--fidelity packet|hybrid|fluid]");
}

TEST(SweepRunner, ParsePerfGateCli)
{
    // The perf-gate flags are peeled off; everything else goes to the
    // shared sweep parser with the caller's allowlist.
    bench::PerfGateCli cli;
    std::string err;
    ASSERT_TRUE(bench::tryParsePerfGateCli(
        {"--short", "--out", "o.json", "--baseline", "b.json",
         "--tolerance", "0.05", "--jobs", "2", "--det"},
        sweepShort | sweepJobs, {"--det"}, cli, err))
        << err;
    EXPECT_EQ(cli.out, "o.json");
    EXPECT_EQ(cli.baseline, "b.json");
    EXPECT_DOUBLE_EQ(cli.tolerance, 0.05);
    EXPECT_TRUE(cli.sweep.shortMode);
    EXPECT_EQ(cli.sweep.jobs, 2u);
    ASSERT_EQ(cli.sweep.rest.size(), 1u);
    EXPECT_EQ(cli.sweep.rest[0], "--det");

    // Defaults: no out path (the bench supplies its own), no
    // baseline, 20% tolerance.
    bench::PerfGateCli def;
    ASSERT_TRUE(bench::tryParsePerfGateCli({}, 0, {}, def, err)) << err;
    EXPECT_TRUE(def.out.empty());
    EXPECT_TRUE(def.baseline.empty());
    EXPECT_DOUBLE_EQ(def.tolerance, 0.20);

    // Zero tolerance is a legal (strictest) gate.
    ASSERT_TRUE(bench::tryParsePerfGateCli({"--tolerance", "0"}, 0,
                                           {}, def, err))
        << err;
    EXPECT_EQ(def.tolerance, 0.0);
}

TEST(SweepRunner, ParsePerfGateCliRejectsBadValues)
{
    bench::PerfGateCli cli;
    std::string err;

    // A tolerance of 1 or more puts the floor at or below 0x, which
    // silently disables the gate; negatives, NaN, inf and garbage are
    // errors too.
    for (const char *bad : {"7", "1", "1.0", "-0.1", "nan", "inf",
                            "0.2x", "", "abc"}) {
        EXPECT_FALSE(bench::tryParsePerfGateCli({"--tolerance", bad},
                                                0, {}, cli, err))
            << bad;
        EXPECT_NE(err.find("--tolerance"), std::string::npos) << bad;
    }

    for (const char *flag : {"--out", "--baseline", "--tolerance"}) {
        EXPECT_FALSE(
            bench::tryParsePerfGateCli({flag}, 0, {}, cli, err))
            << flag;
        EXPECT_NE(err.find("requires a value"), std::string::npos)
            << flag;
    }

    // The forwarded remainder keeps the sweep parser's checks.
    EXPECT_FALSE(bench::tryParsePerfGateCli({"--jobs", "abc"},
                                            sweepJobs, {}, cli, err));
    EXPECT_NE(err.find("--jobs"), std::string::npos);
    EXPECT_FALSE(
        bench::tryParsePerfGateCli({"--bogus"}, sweepJobs, {}, cli, err));
    EXPECT_NE(err.find("--bogus"), std::string::npos);
}
