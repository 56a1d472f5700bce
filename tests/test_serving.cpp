/**
 * @file
 * End-to-end tests for the KV serving harness: request accounting,
 * placement behaviour (handler offload vs host processing), the
 * zero-handler golden equivalence, run-to-run determinism, and the
 * replicated serving tier (the acked-write ledger, crash/failover
 * durability, duplicate-reply suppression).
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

TEST(RpcServing, HostPlacementServesEveryRequest)
{
    SystemConfig base;
    ServingResult r = runServing(base, smallCell(
                                           ServingPlacement::NetDimmHost));
    EXPECT_EQ(r.sent, 350u);
    EXPECT_EQ(r.completed, 350u);
    EXPECT_EQ(r.lost, 0u);
    EXPECT_EQ(r.rtt.count(), 300u); // warmup excluded
    EXPECT_EQ(r.hostServed, r.sent);
    EXPECT_EQ(r.handlerServed, 0u);
    EXPECT_GT(r.rtt.minValue(), 0u);
    EXPECT_GT(r.simulatedUs, 0.0);
}

TEST(RpcServing, HandlerPlacementOffloadsAndWins)
{
    SystemConfig base;
    ServingResult host = runServing(base, smallCell(
                                              ServingPlacement::NetDimmHost));
    ServingResult hand = runServing(
        base, smallCell(ServingPlacement::NetDimmHandlers));

    EXPECT_EQ(hand.completed, hand.sent);
    // Every request is a GET/PUT, so with an installed table the
    // handler cores serve all of them (no overflow at this load).
    EXPECT_EQ(hand.handlerServed, hand.sent);
    EXPECT_EQ(hand.hostServed, 0u);
    EXPECT_GT(hand.handlerBusFraction, 0.0);
    // Offload win: on-DIMM serving beats the host path at p99.
    EXPECT_LT(hand.rtt.percentile(0.99), host.rtt.percentile(0.99));
}

TEST(RpcServing, EmptyMatchTableIsByteIdenticalToPlainNetDimm)
{
    SystemConfig base;
    ServingParams plain = smallCell(ServingPlacement::NetDimmHost);
    ServingParams empty = smallCell(ServingPlacement::NetDimmHandlers);
    empty.emptyMatchTable = true;

    ServingResult a = runServing(base, plain);
    ServingResult b = runServing(base, empty);
    EXPECT_EQ(a.rtt.digest(), b.rtt.digest());
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(b.handlerServed, 0u);
}

TEST(RpcServing, DeterministicAcrossRuns)
{
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHandlers);
    ServingResult a = runServing(base, p);
    ServingResult b = runServing(base, p);
    EXPECT_EQ(a.rtt.digest(), b.rtt.digest());
    EXPECT_EQ(a.handlerServed, b.handlerServed);
    EXPECT_EQ(a.handlerBusFraction, b.handlerBusFraction);
}

TEST(RpcServing, HandlerCellEventsAndDigestArePinned)
{
    // A small NetDIMM+handlers cell at an even GET/PUT mix, so both
    // opcodes run the on-DIMM KV body. Its executed-event count and
    // RTT digest are pinned to recorded values: a refactor of the
    // handler stage must move neither a single event nor a single
    // sample.
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHandlers);
    p.getFraction = 0.5;
    p.requests = 100;
    p.warmup = 20;
    ServingResult r = runServing(base, p);
    EXPECT_EQ(r.handlerServed, r.sent);
    EXPECT_EQ(r.events, 7069u);
    EXPECT_EQ(r.rtt.digest(),
              "lhist bits=7 n=100 min=1420593 max=2665643 "
              "sum=154899500;982:1 983:10 984:30 985:17 986:7 987:6 "
              "988:3 989:4 990:1 993:3 995:1 996:3 997:1 999:1 1005:1 "
              "1006:1 1007:2 1012:1 1013:1 1016:1 1025:3 1027:1 "
              "1041:1 ");
}

TEST(RpcServing, EventCountIsPositiveAndDeterministic)
{
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHost);
    ServingResult a = runServing(base, p);
    ServingResult b = runServing(base, p);
    EXPECT_GT(a.events, 0u);
    EXPECT_EQ(a.events, b.events);
}

// -- serving tier -------------------------------------------------------

TEST(RpcServingCluster, LedgerRecordsOnlyVersionedAcks)
{
    // The default cell is the one-node cluster: every host-served PUT
    // is versioned, enters the acked-write ledger and survives the
    // end-of-run audit.
    SystemConfig base;
    ServingResult host =
        runServing(base, smallCell(ServingPlacement::NetDimmHost));
    EXPECT_GT(host.ackedPuts, 0u);
    EXPECT_EQ(host.lostAckedWrites, 0u);
    EXPECT_EQ(host.staleReads, 0u);

    // At R=1 the handler cores serve PUTs from their device KV and
    // reply with version 0: such a write never enters the replicated
    // store, so the ledger must not hold it either (else the audit
    // reports every handler-served PUT as a lost acked write).
    ServingParams hp = smallCell(ServingPlacement::NetDimmHandlers);
    hp.getFraction = 0.5;
    ServingResult hand = runServing(base, hp);
    EXPECT_EQ(hand.handlerServed, hand.sent);
    EXPECT_EQ(hand.ackedPuts, 0u);
    EXPECT_EQ(hand.lostAckedWrites, 0u);
}

namespace
{

ServingParams
clusterCell(double crashRate, std::uint32_t r)
{
    ServingParams p = smallCell(ServingPlacement::NetDimmHost);
    p.qps = 1e6;
    p.requests = 800;
    p.warmup = 100;
    p.deadline = usToTicks(120);
    p.retryTimeout = usToTicks(10);
    p.maxRetries = 4;
    p.cluster.nodes = 4;
    p.cluster.replication = r;
    p.cluster.crashRatePerSec = crashRate;
    p.cluster.restartDelay = usToTicks(80);
    return p;
}

} // namespace

TEST(RpcServingCluster, ReplicatedClusterLosesNoAckedWriteUnderCrashes)
{
    SystemConfig base;
    ServingResult r = runServing(base, clusterCell(4e4, 2));
    EXPECT_GT(r.crashes, 0u) << "cell too quiet to test anything";
    EXPECT_EQ(r.crashes, r.restarts);
    EXPECT_TRUE(r.ledgerClosed);
    EXPECT_GT(r.ackedPuts, 0u);
    EXPECT_EQ(r.lostAckedWrites, 0u);
    EXPECT_EQ(r.staleReads, 0u);
    EXPECT_GT(r.failoverRedirects, 0u); // clients routed around death
    EXPECT_GT(r.resyncBytes, 0u);       // reboots re-synced shards
    EXPECT_GT(r.goodRpcs, 0u);
}

TEST(RpcServingCluster, DeterministicUnderCrashes)
{
    SystemConfig base;
    ServingParams p = clusterCell(4e4, 2);
    ServingResult a = runServing(base, p);
    ServingResult b = runServing(base, p);
    EXPECT_EQ(a.rtt.digest(), b.rtt.digest());
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.resyncBytes, b.resyncBytes);
    EXPECT_EQ(a.failoverRedirects, b.failoverRedirects);
    EXPECT_EQ(a.duplicateReplies, b.duplicateReplies);
}

TEST(RpcServingCluster, CrashCellEventsAndDigestArePinned)
{
    // The replicated crash cell: R=2 over four nodes with crashes on,
    // so client failover, replica fan-out and retransmit, and
    // resync-before-rejoin all run. Its executed-event count, RTT
    // digest and lifecycle counters are pinned to recorded values: a
    // refactor of the serving roles must move neither a single event
    // nor a single sample.
    SystemConfig base;
    ServingResult r = runServing(base, clusterCell(4e4, 2));
    EXPECT_EQ(r.events, 119003u);
    EXPECT_EQ(r.crashes, 10u);
    EXPECT_EQ(r.restarts, 10u);
    EXPECT_EQ(r.resyncBytes, 59840u);
    EXPECT_EQ(r.failoverRedirects, 364u);
    EXPECT_EQ(r.retries, 275u);
    EXPECT_EQ(r.lostAckedWrites, 0u);
    EXPECT_EQ(r.rtt.digest(),
              "lhist bits=7 n=796 min=4302365 max=139965409 "
              "sum=7639659880;1089:2 1090:86 1091:195 1092:61 1093:26 "
              "1094:28 1095:25 1096:20 1097:19 1098:13 1099:10 1100:12 "
              "1101:2 1102:7 1103:3 1104:5 1105:6 1106:4 1107:2 1108:3 "
              "1109:3 1110:2 1111:5 1112:4 1113:1 1114:3 1115:3 1116:3 "
              "1117:3 1118:1 1119:3 1120:1 1121:1 1122:1 1123:1 1124:1 "
              "1125:2 1128:1 1129:1 1130:1 1132:2 1133:1 1134:1 1135:1 "
              "1136:1 1142:2 1143:1 1148:1 1153:1 1154:7 1155:13 "
              "1156:5 1157:3 1158:2 1159:1 1160:2 1161:1 1162:2 1163:1 "
              "1165:1 1175:1 1190:3 1191:8 1192:7 1193:4 1194:6 1195:8 "
              "1196:12 1197:11 1198:11 1199:7 1200:7 1201:8 1202:6 "
              "1203:14 1204:4 1205:4 1206:3 1207:2 1208:2 1209:3 "
              "1211:1 1212:1 1214:1 1216:2 1219:1 1275:1 1278:2 1279:1 "
              "1280:4 1281:1 1282:2 1285:2 1288:1 1289:1 1290:2 1292:2 "
              "1328:5 1331:1 1345:2 1346:3 1354:1 1355:1 1393:3 1394:1 "
              "1396:1 1402:1 1410:2 ");
}

TEST(RpcServingCluster, UnreplicatedClusterLosesAckedWritesToCrashes)
{
    // The negative control: R=1 has no surviving replica, so a crash
    // provably loses acknowledged writes -- which is exactly what the
    // durability audit must report.
    SystemConfig base;
    ServingResult r = runServing(base, clusterCell(8e4, 1));
    EXPECT_GT(r.crashes, 0u);
    EXPECT_GT(r.lostAckedWrites, 0u);
}

TEST(RpcServing, LateDuplicateRepliesAreDroppedAndCounted)
{
    // A retry timeout far below the actual RTT makes every request
    // retransmit while the original is still being served; the second
    // reply finds its key already completed and must be dropped by
    // the sequence check, not double-counted.
    SystemConfig base;
    ServingParams p = smallCell(ServingPlacement::NetDimmHost);
    p.qps = 0.2e6;
    p.requests = 200;
    p.warmup = 50;
    p.retryTimeout = usToTicks(1); // << RTT
    // Enough retries that the exponential backoff outlives the real
    // RTT: no flight is abandoned, every request completes exactly
    // once, and the extra sends surface purely as duplicates.
    p.maxRetries = 8;
    ServingResult r = runServing(base, p);
    EXPECT_GT(r.duplicateReplies, 0u);
    EXPECT_EQ(r.completed, r.sent); // each counted exactly once
    EXPECT_EQ(r.rtt.count(), 200u);
}
