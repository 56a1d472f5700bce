/**
 * @file
 * Tests for the Node statistics dump and the Packet / breakdown
 * helpers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "net/Link.hh"
#include "kernel/Node.hh"

using namespace netdimm;

TEST(LatencyBreakdown, AddGetTotal)
{
    LatencyBreakdown b;
    EXPECT_EQ(b.total(), 0u);
    b.add(LatComp::TxCopy, 100);
    b.add(LatComp::Wire, 50);
    b.add(LatComp::TxCopy, 25);
    EXPECT_EQ(b.get(LatComp::TxCopy), 125u);
    EXPECT_EQ(b.get(LatComp::Wire), 50u);
    EXPECT_EQ(b.get(LatComp::RxDma), 0u);
    EXPECT_EQ(b.total(), 175u);
}

TEST(LatencyBreakdown, AccumulateOperator)
{
    LatencyBreakdown a, b;
    a.add(LatComp::IoReg, 10);
    b.add(LatComp::IoReg, 5);
    b.add(LatComp::RxCopy, 7);
    a += b;
    EXPECT_EQ(a.get(LatComp::IoReg), 15u);
    EXPECT_EQ(a.get(LatComp::RxCopy), 7u);
}

TEST(LatencyBreakdown, ComponentNamesMatchPaperLegend)
{
    EXPECT_STREQ(latCompName(LatComp::TxCopy), "txCopy");
    EXPECT_STREQ(latCompName(LatComp::TxFlush), "txFlush");
    EXPECT_STREQ(latCompName(LatComp::IoReg), "I/O reg acc");
    EXPECT_STREQ(latCompName(LatComp::Wire), "wire");
    EXPECT_STREQ(latCompName(LatComp::RxInvalidate), "rxInvalidate");
}

TEST(Packet, LinesRoundsUp)
{
    EXPECT_EQ(makePacket(1)->lines(), 1u);
    EXPECT_EQ(makePacket(64)->lines(), 1u);
    EXPECT_EQ(makePacket(65)->lines(), 2u);
    EXPECT_EQ(makePacket(1514)->lines(), 24u); // the paper's 24
    EXPECT_EQ(makePacket(1536)->lines(), 24u);
}

TEST(Packet, IdsAreUnique)
{
    PacketPtr a = makePacket(64), b = makePacket(64);
    EXPECT_NE(a->id, b->id);
}

TEST(NicKindNames, MatchFigureLabels)
{
    EXPECT_STREQ(nicKindName(NicKind::Discrete), "dNIC");
    EXPECT_STREQ(nicKindName(NicKind::DiscreteZeroCopy), "dNIC.zcpy");
    EXPECT_STREQ(nicKindName(NicKind::Integrated), "iNIC");
    EXPECT_STREQ(nicKindName(NicKind::IntegratedZeroCopy),
                 "iNIC.zcpy");
    EXPECT_STREQ(nicKindName(NicKind::NetDimm), "NetDIMM");
}

namespace
{
std::string
statsAfterTraffic(NicKind kind)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = kind;
    EventQueue eq;
    Node a(eq, "a", cfg, 0), b(eq, "b", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    connectNodes(link, a, b);
    b.setReceiveHandler([](const PacketPtr &, Tick) {});
    for (int i = 0; i < 3; ++i) {
        eq.schedule(usToTicks(4) * Tick(i + 1), [&a, &b] {
            a.sendPacket(a.makeTxPacket(512, b.id(), 3));
        });
    }
    eq.run();
    std::ostringstream os;
    b.printStats(os);
    return os.str();
}
} // namespace

TEST(NodeStats, NetDimmDumpContainsEveryComponent)
{
    std::string s = statsAfterTraffic(NicKind::NetDimm);
    for (const char *key :
         {"b.driver", "b.llc", "b.mc0", "b.mc1", "b.netdimm",
          "b.netdimm.ncache", "b.netdimm.rowclone", "b.alloccache",
          "rxPackets", "fpmClones", "fastHits", "busUtilization"}) {
        EXPECT_NE(s.find(key), std::string::npos) << key;
    }
    // Values reflect the traffic.
    EXPECT_NE(s.find("rxFrames"), std::string::npos);
}

TEST(NodeStats, DiscreteDumpContainsPcieNotNetdimm)
{
    std::string s = statsAfterTraffic(NicKind::Discrete);
    EXPECT_NE(s.find("b.pcie"), std::string::npos);
    EXPECT_NE(s.find("tlpsSent"), std::string::npos);
    EXPECT_NE(s.find("b.nic"), std::string::npos);
    EXPECT_EQ(s.find("netdimm"), std::string::npos);
}

TEST(NodeStats, IntegratedDumpHasNicNoPcie)
{
    std::string s = statsAfterTraffic(NicKind::Integrated);
    EXPECT_NE(s.find("b.nic"), std::string::npos);
    EXPECT_EQ(s.find("b.pcie"), std::string::npos);
}
