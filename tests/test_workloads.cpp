/**
 * @file
 * Tests for the workload generators and harnesses: the cluster trace
 * distributions (property-checked per cluster via TEST_P), the MLC
 * injector, the iperf flow, the NF harness, and the shared two-node
 * scenarios.
 */

#include <array>

#include <gtest/gtest.h>

#include "net/Link.hh"
#include "workload/IperfFlow.hh"
#include "workload/MemLatencyProbe.hh"
#include "workload/MlcInjector.hh"
#include "workload/NfHarness.hh"
#include "workload/Scenarios.hh"
#include "workload/TraceFile.hh"
#include "workload/TraceGen.hh"

using namespace netdimm;

// ---------------------------------------------------------------------
// TraceGen distribution properties (Sec. 5.1's published mixes).
// ---------------------------------------------------------------------

class TraceGenTest : public ::testing::TestWithParam<ClusterType>
{
};

TEST_P(TraceGenTest, SizesWithinEthernetBounds)
{
    TraceGen gen(GetParam(), 10.0, 1);
    for (int i = 0; i < 5000; ++i) {
        TraceRecord r = gen.next();
        EXPECT_GE(r.bytes, 64u);
        EXPECT_LE(r.bytes, 1514u);
    }
}

TEST_P(TraceGenTest, InterArrivalMatchesOfferedLoad)
{
    TraceGen gen(GetParam(), 10.0, 2);
    double total_bytes = 0.0;
    double total_ns = 0.0;
    for (int i = 0; i < 20000; ++i) {
        TraceRecord r = gen.next();
        total_bytes += r.bytes;
        total_ns += ticksToNs(r.interArrival);
    }
    double gbps = total_bytes * 8.0 / total_ns;
    EXPECT_NEAR(gbps, 10.0, 1.5);
}

TEST_P(TraceGenTest, DeterministicForSeed)
{
    TraceGen a(GetParam(), 10.0, 7), b(GetParam(), 10.0, 7);
    for (int i = 0; i < 100; ++i) {
        TraceRecord ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.bytes, rb.bytes);
        EXPECT_EQ(ra.interArrival, rb.interArrival);
    }
}

INSTANTIATE_TEST_SUITE_P(AllClusters, TraceGenTest,
                         ::testing::Values(ClusterType::Database,
                                           ClusterType::Webserver,
                                           ClusterType::Hadoop),
                         [](const auto &info) {
                             return std::string(
                                 clusterName(info.param));
                         });

TEST(TraceGen, WebserverIsSmallPacketHeavy)
{
    TraceGen gen(ClusterType::Webserver, 10.0, 3);
    int small = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        small += (gen.next().bytes < 300);
    // Paper: ~90% below 300B.
    EXPECT_NEAR(double(small) / n, 0.90, 0.02);
}

TEST(TraceGen, HadoopIsBimodal)
{
    TraceGen gen(ClusterType::Hadoop, 10.0, 4);
    int tiny = 0, mtu = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        std::uint32_t b = gen.next().bytes;
        tiny += (b < 100);
        mtu += (b == 1514);
    }
    // Paper: ~41% < 100B and ~52% = 1514B.
    EXPECT_NEAR(double(tiny) / n, 0.41, 0.02);
    EXPECT_NEAR(double(mtu) / n, 0.52, 0.02);
}

TEST(TraceGen, DatabaseIsUniform)
{
    TraceGen gen(ClusterType::Database, 10.0, 5);
    stats::Average sizes;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sizes.sample(double(gen.next().bytes));
    EXPECT_NEAR(sizes.mean(), (64.0 + 1514.0) / 2.0, 25.0);
}

TEST(TraceGen, LocalityMatchesClusterCharacter)
{
    auto count = [](ClusterType c, TrafficLocality want) {
        TraceGen gen(c, 10.0, 6);
        int hits = 0;
        for (int i = 0; i < 10000; ++i)
            hits += (gen.next().locality == want);
        return double(hits) / 10000.0;
    };
    // Hadoop is intra-cluster, webserver intra-datacenter, database
    // has substantial inter-datacenter traffic.
    EXPECT_GT(count(ClusterType::Hadoop, TrafficLocality::IntraCluster),
              0.7);
    EXPECT_GT(count(ClusterType::Webserver,
                    TrafficLocality::IntraDatacenter),
              0.7);
    EXPECT_GT(count(ClusterType::Database,
                    TrafficLocality::InterDatacenter),
              0.3);
}

// ---------------------------------------------------------------------
// MlcInjector.
// ---------------------------------------------------------------------

TEST(MlcInjector, GeneratesLoadAndStops)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = NicKind::Integrated;
    EventQueue eq;
    Node node(eq, "n", cfg, 0);
    MlcInjector mlc(eq, "mlc", node, nsToTicks(0), 1024, 16);
    mlc.start();
    eq.run(usToTicks(50));
    mlc.stop();
    eq.run();
    EXPECT_GT(mlc.issued(), 1000u);
    EXPECT_GT(mlc.achievedGBps(), 2.0);
}

TEST(MlcInjector, DelayThrottlesLoad)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = NicKind::Integrated;

    auto run = [&](double delay_ns) {
        EventQueue eq;
        Node node(eq, "n", cfg, 0);
        MlcInjector mlc(eq, "mlc", node, nsToTicks(delay_ns), 1024, 16);
        mlc.start();
        eq.run(usToTicks(50));
        return mlc.achievedGBps();
    };
    double fast = run(0);
    double slow = run(500);
    EXPECT_GT(fast, 3.0 * slow);
    // 500ns spacing -> 2 x 64B per 500ns = 0.256 GB/s.
    EXPECT_NEAR(slow, 0.256, 0.05);
}

TEST(MlcInjector, RaisesObservedMemoryLatency)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = NicKind::Integrated;

    auto probe_lat = [&](bool pressured) {
        EventQueue eq;
        Node node(eq, "n", cfg, 0);
        MemLatencyProbe probe(eq, "p", node, nsToTicks(20), 8192);
        std::vector<std::unique_ptr<MlcInjector>> mlcs;
        if (pressured) {
            for (int i = 0; i < 4; ++i) {
                mlcs.push_back(std::make_unique<MlcInjector>(
                    eq, "mlc" + std::to_string(i), node, 0, 2048, 32));
                mlcs.back()->start();
            }
        }
        probe.start();
        eq.run(usToTicks(100));
        return probe.meanLatencyNs();
    };
    double idle = probe_lat(false);
    double loaded = probe_lat(true);
    EXPECT_GT(loaded, 1.3 * idle);
}

// ---------------------------------------------------------------------
// IperfFlow.
// ---------------------------------------------------------------------

TEST(IperfFlow, ReachesHighGoodputOnCleanLink)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = NicKind::Integrated;
    EventQueue eq;
    Node tx(eq, "tx", cfg, 0);
    Node rx(eq, "rx", cfg, 1);
    EthLink link(eq, "l", cfg.eth);
    connectNodes(link, tx, rx);

    IperfFlow flow(eq, "f", tx, rx, 1460, 64, 4);
    flow.start();
    eq.run(usToTicks(200));
    EXPECT_GT(flow.goodputGbps(), 30.0);
    EXPECT_GT(flow.deliveredSegments(), 500u);
}

TEST(IperfFlow, WindowBoundsInFlight)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = NicKind::Integrated;
    EventQueue eq;
    Node tx(eq, "tx", cfg, 0);
    Node rx(eq, "rx", cfg, 1);
    EthLink link(eq, "l", cfg.eth);
    connectNodes(link, tx, rx);

    // A window of 2 on a ~3us round trip cannot exceed ~2 segments
    // per RTT.
    IperfFlow flow(eq, "f", tx, rx, 1460, 2, 1);
    flow.start();
    eq.run(usToTicks(200));
    double rtt_bound = 2.0 * 1460.0 * 8.0 / 2.5e3; // 2 seg / 2.5us, Gbps
    EXPECT_LT(flow.goodputGbps(), rtt_bound * 1.5);
    EXPECT_GT(flow.deliveredSegments(), 50u);
}

// ---------------------------------------------------------------------
// NfHarness.
// ---------------------------------------------------------------------

class NfHarnessTest
    : public ::testing::TestWithParam<std::pair<NicKind, NfKind>>
{
};

TEST_P(NfHarnessTest, ForwardsEveryPacket)
{
    setQuiet(true);
    auto [kind, nf] = GetParam();
    SystemConfig cfg;
    cfg.nic = kind;
    EventQueue eq;
    Node gen(eq, "gen", cfg, 0);
    Node nut(eq, "nut", cfg, 1);
    EthLink link(eq, "l", cfg.eth);
    connectNodes(link, gen, nut);

    NfHarness harness(eq, "nf", nut, nf);
    const int n = 40;
    for (int i = 0; i < n; ++i) {
        eq.schedule(usToTicks(2) * Tick(i + 1), [&gen, &nut, i] {
            gen.sendPacket(
                gen.makeTxPacket(1000, nut.id(), 1 + (i % 4)));
        });
    }
    eq.run();
    EXPECT_EQ(harness.processed(), unsigned(n));
    EXPECT_EQ(harness.forwarded(), unsigned(n));
    EXPECT_GT(harness.meanProcessNs(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, NfHarnessTest,
    ::testing::Values(
        std::make_pair(NicKind::Integrated, NfKind::L3Forward),
        std::make_pair(NicKind::Integrated, NfKind::DeepInspect),
        std::make_pair(NicKind::NetDimm, NfKind::L3Forward),
        std::make_pair(NicKind::NetDimm, NfKind::DeepInspect)),
    [](const auto &info) {
        std::string n = nicKindName(info.param.first);
        n += "_";
        n += nfKindName(info.param.second);
        for (auto &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

TEST(NfHarness, DpiReadsMoreThanL3f)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = NicKind::NetDimm;

    auto host_reads = [&](NfKind nf) {
        EventQueue eq;
        Node gen(eq, "gen", cfg, 0);
        Node nut(eq, "nut", cfg, 1);
        EthLink link(eq, "l", cfg.eth);
        connectNodes(link, gen, nut);
        NfHarness harness(eq, "nf", nut, nf);
        for (int i = 0; i < 20; ++i) {
            eq.schedule(usToTicks(3) * Tick(i + 1), [&gen, &nut, i] {
                gen.sendPacket(
                    gen.makeTxPacket(1460, nut.id(), 1 + (i % 4)));
            });
        }
        eq.run();
        return nut.netdimm()->hostReads();
    };
    // DPI pulls the payload across the host channel; L3F only the
    // header + descriptor lines.
    EXPECT_GT(host_reads(NfKind::DeepInspect),
              2 * host_reads(NfKind::L3Forward));
}

// ---------------------------------------------------------------------
// Shared scenarios (Scenarios.hh).
// ---------------------------------------------------------------------

TEST(Scenarios, FabricReplayDeliversEveryRecordAtItsLocality)
{
    setQuiet(true);
    TraceGen gen(ClusterType::Hadoop, 5.0, 7);
    const std::vector<TraceRecord> trace = TraceFile::synthesize(gen, 200);
    std::array<int, 4> sent{}, got{};
    std::uint64_t sentBytes = 0, gotBytes = 0;
    for (const TraceRecord &r : trace) {
        ++sent[std::size_t(r.locality)];
        sentBytes += r.bytes;
    }

    FabricPair pair(NicKind::Integrated, nsToTicks(50));
    pair.rx.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        EXPECT_GE(pkt->flowId, 1u);
        EXPECT_LE(pkt->flowId, 8u);
        ++got[std::size_t(pkt->locality)];
        gotBytes += pkt->bytes;
    });
    pair.replay(trace);
    EXPECT_EQ(got, sent);
    EXPECT_EQ(gotBytes, sentBytes);
    EXPECT_EQ(pair.rx.name(), "rx");
}

TEST(Scenarios, OfferedLoadCellDeliversTheWholeTrain)
{
    setQuiet(true);
    OfferedLoadCell cell(NicKind::NetDimm);
    int got = 0;
    cell.rx.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        EXPECT_EQ(pkt->bytes, 1460u);
        ++got;
    });
    cell.run(10.0, 100);
    EXPECT_EQ(got, 100);
}

TEST(Scenarios, NfCellForwardsTheTraceWhileTheProbeRuns)
{
    setQuiet(true);
    NfCell cell(NicKind::NetDimm, NfKind::L3Forward, "box");
    cell.run(ClusterType::Webserver, 10.0, 1, 100);
    EXPECT_EQ(cell.net.rx.name(), "box");
    EXPECT_EQ(cell.harness.forwarded(), 100u);
    EXPECT_GT(cell.probe.accesses(), 0u);
}
