/**
 * @file
 * End-to-end tests for the request-reliability layer (DESIGN.md §14):
 * per-RPC deadlines as pure metadata, client retry/backoff with
 * deadline-aware suppression, hedging, bounded admission with
 * load-shedding policies, and handler-fault recovery accounting
 * through a full serving cell.
 */

#include <gtest/gtest.h>

#include "workload/RpcServingLoad.hh"

using namespace netdimm;

namespace
{

ServingParams
smallCell(ServingPlacement placement)
{
    ServingParams p;
    p.placement = placement;
    p.qps = 0.5e6;
    p.requests = 300;
    p.warmup = 50;
    return p;
}

} // namespace

TEST(Reliability, DeadlineAloneIsPureMetadata)
{
    // A deadline with no retries, no hedging, and no shedding must
    // not perturb the simulation by a single tick: goodput is read
    // off the same reply stream.
    SystemConfig base;
    ServingParams plain = smallCell(ServingPlacement::NetDimmHost);
    ServingParams dl = plain;
    dl.deadline = usToTicks(100); // generous: everything qualifies

    ServingResult a = runServing(base, plain);
    ServingResult b = runServing(base, dl);
    EXPECT_EQ(a.rtt.digest(), b.rtt.digest());
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(b.goodRpcs, b.rtt.count());
    // Without a deadline every measured reply counts as good.
    EXPECT_EQ(a.goodRpcs, a.rtt.count());
}

TEST(Reliability, TightDeadlineZeroesGoodputWithoutLosingReplies)
{
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHost);
    p.deadline = usToTicks(1); // far below the minimum host RTT

    ServingResult r = runServing(base, p);
    EXPECT_EQ(r.completed, r.sent); // replies still arrive...
    EXPECT_EQ(r.goodRpcs, 0u);      // ...but none beat the deadline
    EXPECT_EQ(r.rtt.count(), 300u);
}

TEST(Reliability, ShortTimeoutRetriesButFirstReplyStillLands)
{
    // Timeout below the minimum RTT: every request is resent at
    // least once, yet the duplicate is harmless — the client keys
    // replies by rpcKey and the first one wins.
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHost);
    p.maxRetries = 2;
    p.retryTimeout = usToTicks(2);

    ServingResult r = runServing(base, p);
    EXPECT_GT(r.timeouts, 0u);
    EXPECT_GT(r.retries, 0u);
    // Every flight ends exactly one way: first reply wins, or the
    // client exhausts its retries and abandons. Nothing double-counts.
    EXPECT_EQ(r.completed + r.abandoned, r.sent);
    EXPECT_EQ(r.lost, r.abandoned);
    EXPECT_GT(r.completed, 0u);
}

TEST(Reliability, BlownDeadlineSuppressesRetries)
{
    // Retrying a request whose deadline already passed only poisons
    // the server queue: the client must abandon instead of resend.
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHost);
    p.deadline = usToTicks(1);
    p.maxRetries = 3;
    p.retryTimeout = usToTicks(2); // fires with the deadline blown

    ServingResult r = runServing(base, p);
    EXPECT_GT(r.timeouts, 0u);
    EXPECT_EQ(r.retries, 0u); // suppression: never resent
    EXPECT_EQ(r.abandoned, r.sent);
    EXPECT_EQ(r.goodRpcs, 0u);
}

TEST(Reliability, HedgingRacesDuplicatesHarmlessly)
{
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHost);
    p.hedge = true;
    p.hedgeFloor = usToTicks(1); // below min RTT: every RPC hedges

    ServingResult r = runServing(base, p);
    EXPECT_GT(r.hedges, 0u);
    EXPECT_EQ(r.completed, r.sent);
    EXPECT_EQ(r.lost, 0u);
    EXPECT_EQ(r.rtt.count(), 300u);
}

TEST(Reliability, BoundedAdmissionShedsUnderOverload)
{
    // Offered load ~4x the host pool's capacity: the bounded queue
    // must shed instead of building an unbounded backlog. Depth 0 is
    // the unbounded FIFO, which never sheds whatever the policy.
    const struct
    {
        std::uint32_t depth;
        ShedPolicy shed;
    } inputs[] = {{4, ShedPolicy::Tail}, {0, ShedPolicy::GetsFirst}};
    for (const auto &in : inputs) {
        SCOPED_TRACE(in.depth);
        SystemConfig base;
        ServingParams p = smallCell(ServingPlacement::NetDimmHost);
        p.qps = 4e6;
        p.deadline = usToTicks(30);
        p.admitDepth = in.depth;
        p.shed = in.shed;
        p.dropExpiredAtDequeue = true;
        p.dequeueMargin = usToTicks(5);

        ServingResult r = runServing(base, p);
        if (in.depth == 0) {
            EXPECT_EQ(r.shedQueueFull, 0u);
            EXPECT_EQ(r.shedGets, 0u);
            continue;
        }
        EXPECT_GT(r.shedQueueFull, 0u);
        EXPECT_GT(r.lost, 0u);         // shed requests never reply
        EXPECT_LT(r.goodRpcs, r.sent); // but survivors are on time:
        EXPECT_GT(r.goodRpcs, 0u);     // goodput does not collapse
    }
}

TEST(Reliability, GetsFirstPolicyEvictsQueuedGets)
{
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHost);
    p.qps = 4e6;
    p.deadline = usToTicks(30);
    p.admitDepth = 4;
    p.shed = ShedPolicy::GetsFirst;
    p.dropExpiredAtDequeue = true;
    p.dequeueMargin = usToTicks(5);

    ServingResult r = runServing(base, p);
    // PUTs displace queued GETs when the queue is full.
    EXPECT_GT(r.shedGets, 0u);
    EXPECT_GT(r.goodRpcs, 0u);
}

TEST(Reliability, HandlerFaultRecoveryClosesLedgerEndToEnd)
{
    // Aggressive fault rates on the handler cores: every faulted
    // frame must be recovered onto the host path exactly once and
    // still produce a reply — no request is lost to a fault.
    SystemConfig base;
    base.faults.enabled = true;
    base.faults.handlerHangProb = 0.01;
    base.faults.handlerCrashProb = 0.05;
    base.faults.kvCorruptProb = 0.05;
    base.faults.handlerStallTimeout = usToTicks(5);
    base.faults.handlerWatchdogPeriod = usToTicks(2);

    ServingParams p = smallCell(ServingPlacement::NetDimmHandlers);
    ServingResult r = runServing(base, p);

    EXPECT_EQ(r.completed, r.sent);
    EXPECT_EQ(r.lost, 0u);
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_EQ(r.faultFallbacks, r.faultsInjected);
    EXPECT_EQ(r.faultsRecovered, r.faultsInjected);
    EXPECT_EQ(r.faultsUnrecovered, 0u);
    EXPECT_TRUE(r.ledgerClosed);
    EXPECT_GT(r.hostServed, 0u); // the fallbacks were host-served
    EXPECT_EQ(r.handlerHangFaults + r.handlerCrashFaults +
                  r.handlerCorruptNacks,
              r.faultsInjected);
}

TEST(Reliability, ZeroRateFaultWiringIsByteIdentical)
{
    // Enabling the fault framework with every handler probability at
    // zero must reproduce the unwired cell bit-for-bit: fault draws
    // come from a private stream and never touch the schedule.
    SystemConfig off;
    SystemConfig wired;
    wired.faults.enabled = true;

    ServingParams p = smallCell(ServingPlacement::NetDimmHandlers);
    ServingResult a = runServing(off, p);
    ServingResult b = runServing(wired, p);
    EXPECT_EQ(a.rtt.digest(), b.rtt.digest());
    EXPECT_EQ(a.handlerServed, b.handlerServed);
    EXPECT_EQ(b.faultsInjected, 0u);
    EXPECT_TRUE(b.ledgerClosed);
}
