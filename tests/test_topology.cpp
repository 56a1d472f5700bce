/**
 * @file
 * Tests for the switched leaf-spine topology: routing correctness,
 * hop counts via latency, multi-node delivery, and a full end-to-end
 * run with real nodes on different racks.
 */

#include <gtest/gtest.h>

#include "net/Topology.hh"
#include "kernel/Node.hh"

using namespace netdimm;

namespace
{

struct SinkEndpoint : NetEndpoint
{
    EventQueue &eq;
    std::vector<std::pair<PacketPtr, Tick>> got;

    explicit SinkEndpoint(EventQueue &e) : eq(e) {}

    void
    deliver(const PacketPtr &pkt) override
    {
        got.emplace_back(pkt, eq.curTick());
    }
};

/** One pod of @p leaves racks under two spines, @p per_leaf nodes per
 *  rack: node n sits on leaf n / per_leaf. */
PodFabricSpec
racks(std::uint32_t leaves, std::uint32_t per_leaf,
      const EthConfig &eth = EthConfig{})
{
    return PodFabricSpec{.pods = 1,
                         .leavesPerPod = leaves,
                         .spines = 2,
                         .nodesPerLeaf = per_leaf,
                         .eth = eth};
}

} // namespace

TEST(LeafSpine, RackLocalCrossesOneSwitch)
{
    EventQueue eq;
    EthConfig cfg;
    PodFabricShard topo(eq, "fab", racks(2, 2, cfg));
    SinkEndpoint a(eq), b(eq);
    EthLink &la = topo.attach(0, &a);
    topo.attach(1, &b);

    PacketPtr pkt = makePacket(200, 0, 1);
    la.send(&a, pkt);
    eq.run();
    ASSERT_EQ(b.got.size(), 1u);
    // access up + ToR + access down: 2 serializations, 1 switch.
    Tick expect = 2 * (la.frameTicks(200) + cfg.propagation +
                       cfg.macLatency) +
                  cfg.switchLatency;
    EXPECT_EQ(b.got[0].second, expect);
    EXPECT_EQ(topo.leaf(0).framesForwarded(), 1u);
    EXPECT_EQ(topo.spine(0).framesForwarded() +
                  topo.spine(1).framesForwarded(),
              0u);
}

TEST(LeafSpine, CrossRackCrossesThreeSwitches)
{
    EventQueue eq;
    EthConfig cfg;
    PodFabricShard topo(eq, "fab", racks(2, 1, cfg));
    SinkEndpoint a(eq), b(eq);
    EthLink &la = topo.attach(0, &a);
    topo.attach(1, &b);

    PacketPtr pkt = makePacket(200, 0, 1);
    la.send(&a, pkt);
    eq.run();
    ASSERT_EQ(b.got.size(), 1u);
    Tick expect = 4 * (la.frameTicks(200) + cfg.propagation +
                       cfg.macLatency) +
                  3 * cfg.switchLatency;
    EXPECT_EQ(b.got[0].second, expect);
    EXPECT_EQ(topo.fabricFrames(), 3u);
}

TEST(LeafSpine, EcmpSpreadsFlowsAcrossSpines)
{
    EventQueue eq;
    EthConfig cfg;
    PodFabricShard topo(eq, "fab", racks(2, 1, cfg));
    SinkEndpoint a(eq), b(eq);
    EthLink &la = topo.attach(0, &a);
    topo.attach(1, &b);

    // Many distinct flows to one destination: the (src, dst, flow)
    // hash must spread them over both spines, and every one must
    // arrive (full ECMP group, no pinned spine).
    const int flows = 32;
    for (int f = 0; f < flows; ++f) {
        PacketPtr pkt = makePacket(200, 0, 1);
        pkt->flowId = std::uint64_t(f);
        la.send(&a, pkt);
    }
    eq.run();
    EXPECT_EQ(b.got.size(), std::size_t(flows));
    EXPECT_GT(topo.spine(0).framesForwarded(), 0u);
    EXPECT_GT(topo.spine(1).framesForwarded(), 0u);
    EXPECT_EQ(topo.spine(0).framesForwarded() +
                  topo.spine(1).framesForwarded(),
              std::uint64_t(flows));
}

TEST(LeafSpine, EcmpSelectionIsAPureFunctionOfPacketFields)
{
    // One flow's packets all take the same spine (no reorder while
    // the path set is stable) and a rebuilt topology reproduces the
    // same split exactly: selection draws no randomness.
    auto run = [](std::vector<std::uint64_t> &per_spine) {
        EventQueue eq;
        EthConfig cfg;
        PodFabricShard topo(eq, "fab", racks(2, 1, cfg));
        SinkEndpoint a(eq), b(eq);
        EthLink &la = topo.attach(0, &a);
        topo.attach(1, &b);
        for (int f = 0; f < 16; ++f) {
            for (int rep = 0; rep < 3; ++rep) {
                PacketPtr pkt = makePacket(200, 0, 1);
                pkt->flowId = std::uint64_t(f);
                la.send(&a, pkt);
            }
        }
        eq.run();
        per_spine = {topo.spine(0).framesForwarded(),
                     topo.spine(1).framesForwarded()};
    };
    std::vector<std::uint64_t> first, second;
    run(first);
    run(second);
    EXPECT_EQ(first, second);
    // Repetitions of a flow never split across spines: every spine
    // count is a multiple of the 3 repetitions.
    EXPECT_EQ(first[0] % 3, 0u);
    EXPECT_EQ(first[1] % 3, 0u);
}

TEST(LeafSpine, ManyNodesAllPairsDeliver)
{
    EventQueue eq;
    EthConfig cfg;
    PodFabricShard topo(eq, "fab", racks(3, 2, cfg));
    std::vector<std::unique_ptr<SinkEndpoint>> eps;
    std::vector<EthLink *> links;
    const std::uint32_t n = topo.spec().totalNodes();
    for (std::uint32_t i = 0; i < n; ++i) {
        eps.push_back(std::make_unique<SinkEndpoint>(eq));
        links.push_back(&topo.attach(i, eps.back().get()));
    }
    int expected = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
        for (std::uint32_t d = 0; d < n; ++d) {
            if (s == d)
                continue;
            links[s]->send(eps[s].get(), makePacket(300, s, d));
            ++expected;
        }
    }
    eq.run();
    int delivered = 0;
    for (const auto &ep : eps)
        delivered += int(ep->got.size());
    EXPECT_EQ(delivered, expected);
}

TEST(LeafSpine, EndToEndNodesAcrossRacks)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = NicKind::NetDimm;
    EventQueue eq;
    Node a(eq, "a", cfg, 0);
    Node b(eq, "b", cfg, 1);
    PodFabricShard topo(eq, "fab", racks(2, 1, cfg.eth));
    EthLink &la = topo.attach(0, a.endpoint());
    EthLink &lb = topo.attach(1, b.endpoint());
    NetEndpoint *ea = a.endpoint(), *eb = b.endpoint();
    a.setWire([&la, ea](const PacketPtr &p) { la.send(ea, p); });
    b.setWire([&lb, eb](const PacketPtr &p) { lb.send(eb, p); });

    int got = 0;
    Tick one_way = 0;
    b.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        ++got;
        one_way = pkt->oneWayLatency();
    });
    for (int i = 0; i < 3; ++i) {
        eq.schedule(usToTicks(5) * Tick(i + 1), [&a, &b] {
            a.sendPacket(a.makeTxPacket(512, b.id(), 3));
        });
    }
    eq.run();
    EXPECT_EQ(got, 3);
    // Direct-link NetDIMM @512B is ~1.2us; three switch hops and four
    // serializations push it past that but under 3us.
    EXPECT_GT(ticksToUs(one_way), 1.2);
    EXPECT_LT(ticksToUs(one_way), 3.0);
}
