/**
 * @file
 * Whole-node crash/restart tests (DESIGN.md §15): a crash drops the
 * link and everything in flight, a restart cold-boots the device and
 * replays the workload hook, the NodeLifecycle scheduler closes its
 * fault ledger, and a zero-rate lifecycle is draw-free.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kernel/Node.hh"
#include "kernel/NodeLifecycle.hh"
#include "net/Link.hh"

using namespace netdimm;

namespace
{

SystemConfig
quietCfg()
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = NicKind::NetDimm;
    cfg.faults.enabled = true;
    return cfg;
}

/** Client + server over one link; client pings on demand. */
struct Pair
{
    EventQueue eq;
    SystemConfig cfg;
    std::unique_ptr<Node> client, server;
    std::unique_ptr<EthLink> link;
    std::uint64_t delivered = 0;

    explicit Pair(const SystemConfig &c) : cfg(c)
    {
        client = std::make_unique<Node>(eq, "client", cfg, 0);
        server = std::make_unique<Node>(eq, "server", cfg, 1);
        link = std::make_unique<EthLink>(eq, "link", cfg.eth);
        connectNodes(*link, *client, *server);
        server->setReceiveHandler(
            [this](const PacketPtr &, Tick) { ++delivered; });
    }

    void
    ping()
    {
        PacketPtr p = client->makeTxPacket(256, server->id());
        client->sendPacket(p);
    }
};

} // namespace

TEST(NodeLifecycle, CrashDropsTrafficRestartResumes)
{
    Pair s(quietCfg());

    // Healthy baseline.
    s.eq.schedule(usToTicks(1), [&] { s.ping(); });
    // Crash at 20us; pings at 25/30us land on a dead node (the link
    // is down, sends are dropped on the floor, nothing wedges).
    s.eq.schedule(usToTicks(20), [&] { s.server->crash(); });
    s.eq.schedule(usToTicks(25), [&] { s.ping(); });
    s.eq.schedule(usToTicks(30), [&] { s.ping(); });
    // Restart at 60us; a later ping delivers again.
    s.eq.schedule(usToTicks(60), [&] { s.server->restart(); });
    s.eq.schedule(usToTicks(80), [&] { s.ping(); });
    s.eq.run();

    EXPECT_EQ(s.delivered, 2u); // baseline + post-restart only
    EXPECT_TRUE(s.server->alive());
    EXPECT_EQ(s.server->bootGen(), 1u);
    EXPECT_EQ(s.server->crashesInjected(), 1u);
    EXPECT_EQ(s.server->restarts(), 1u);
}

TEST(NodeLifecycle, CrashWipesDeviceStateAndColdBootHookReplays)
{
    SystemConfig cfg = quietCfg();
    cfg.handler.enabled = true;
    Pair s(cfg);

    HandlerStage *hs = s.server->netdimm()->handlers();
    ASSERT_NE(hs, nullptr);
    hs->configureKv(1u << 10, 1u << 10, 128);
    hs->serve(RpcOp::Get);
    ASSERT_TRUE(hs->serving());

    int hookRuns = 0;
    s.server->setColdBootHook([&] {
        ++hookRuns;
        HandlerStage *h = s.server->netdimm()->handlers();
        h->configureKv(1u << 10, 1u << 10, 128);
        h->serve(RpcOp::Get);
    });

    // Prime the nCache with one delivered frame, then crash.
    s.eq.schedule(usToTicks(1), [&] { s.ping(); });
    s.eq.schedule(usToTicks(20), [&] { s.server->crash(); });
    s.eq.run();

    // Power-fail semantics: served ops gone, nCache empty.
    EXPECT_FALSE(hs->serving());
    EXPECT_EQ(s.server->netdimm()->ncache().occupancy(), 0u);
    EXPECT_FALSE(s.server->alive());
    EXPECT_EQ(hookRuns, 0);

    s.server->restart();
    EXPECT_EQ(hookRuns, 1);
    EXPECT_TRUE(hs->serving()); // hook served GET again

    // And the rebooted node serves traffic again.
    s.eq.schedule(s.eq.curTick() + usToTicks(5), [&] { s.ping(); });
    s.eq.run();
    EXPECT_EQ(s.delivered, 2u);
}

TEST(NodeLifecycle, RatedScheduleClosesItsLedger)
{
    SystemConfig cfg = quietCfg();
    Pair s(cfg);
    FaultDomain &dom = s.server->faults()->domain("server.crash");

    NodeLifecycle::Params lp;
    lp.crashRatePerSec = 3e5; // ~3.3us mean gap: several crashes
    lp.restartDelay = usToTicks(2);
    lp.windowEnd = usToTicks(100);
    NodeLifecycle life(s.eq, *s.server, dom, lp);
    life.start();
    s.eq.run();

    EXPECT_GT(dom.injected(), 0u);
    EXPECT_TRUE(dom.ledgerClosed())
        << dom.injected() << "/" << dom.recovered();
    EXPECT_EQ(s.server->crashesInjected(), s.server->restarts());
    EXPECT_TRUE(s.server->alive()); // every crash booked its reboot
    EXPECT_FALSE(life.down());
}

TEST(NodeLifecycle, GateDefersButNeverDropsACrash)
{
    SystemConfig cfg = quietCfg();
    Pair s(cfg);
    FaultDomain &dom = s.server->faults()->domain("server.crash");

    NodeLifecycle::Params lp;
    lp.crashRatePerSec = 2e5;
    lp.restartDelay = usToTicks(2);
    lp.windowEnd = usToTicks(60);
    lp.deferPeriod = usToTicks(1);
    NodeLifecycle life(s.eq, *s.server, dom, lp);
    // Gate closed for the first 30us: crashes due in that window must
    // defer past it, not vanish.
    life.setGate([&] { return s.eq.curTick() >= usToTicks(30); });
    std::uint64_t drawsBefore = dom.decisions();
    life.start();
    s.eq.run();

    EXPECT_TRUE(dom.ledgerClosed());
    // One draw per scheduled crash attempt: deferral consumed none.
    // The final draw lands past windowEnd and schedules nothing.
    EXPECT_EQ(dom.decisions() - drawsBefore, dom.injected() + 1);
}

TEST(NodeLifecycle, ZeroRateIsDrawFreeAndInert)
{
    SystemConfig cfg = quietCfg();
    Pair s(cfg);
    FaultDomain &dom = s.server->faults()->domain("server.crash");

    NodeLifecycle::Params lp; // crashRatePerSec = 0
    NodeLifecycle life(s.eq, *s.server, dom, lp);
    life.start();
    s.eq.schedule(usToTicks(1), [&] { s.ping(); });
    s.eq.run();

    EXPECT_EQ(dom.decisions(), 0u);
    EXPECT_EQ(dom.injected(), 0u);
    EXPECT_EQ(s.delivered, 1u);
}

TEST(NodeLifecycle, CrashNowFollowsTheNormalRestartPath)
{
    SystemConfig cfg = quietCfg();
    Pair s(cfg);
    FaultDomain &dom = s.server->faults()->domain("server.crash");

    NodeLifecycle::Params lp;
    lp.restartDelay = usToTicks(10);
    NodeLifecycle life(s.eq, *s.server, dom, lp);

    int crashHook = 0, restartHook = 0;
    life.setOnCrash([&] { ++crashHook; });
    life.setOnRestart([&] { ++restartHook; });

    s.eq.schedule(usToTicks(5), [&] { life.crashNow(); });
    s.eq.schedule(usToTicks(7), [&] {
        EXPECT_TRUE(life.down());
        EXPECT_FALSE(s.server->alive());
    });
    s.eq.run();

    EXPECT_EQ(crashHook, 1);
    EXPECT_EQ(restartHook, 1);
    EXPECT_TRUE(s.server->alive());
    EXPECT_TRUE(dom.ledgerClosed());
    EXPECT_EQ(dom.injected(), 1u);
    EXPECT_EQ(dom.decisions(), 0u); // zero-rate: deterministic crash
}
