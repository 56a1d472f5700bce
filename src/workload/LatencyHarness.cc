#include "workload/LatencyHarness.hh"

namespace netdimm
{

PingResult
LatencyHarness::run(std::uint32_t bytes, int npkts, int warmup) const
{
    EventQueue eq;
    Node a(eq, "a", _cfg, 0);
    Node b(eq, "b", _cfg, 1);
    EthLink link(eq, "link", _cfg.eth);
    connectNodes(link, a, b);

    PingResult res;
    res.bytes = bytes;
    int sent = 0;
    int total = npkts + warmup;

    // Ping train: one packet in flight at a time, next send shortly
    // after the previous delivery so queues stay empty (zero-load
    // latency, matching the paper's Fig. 4/11 methodology).
    std::function<void()> send_next = [&] {
        if (sent >= total)
            return;
        ++sent;
        PacketPtr pkt = a.makeTxPacket(bytes, b.id(), /*flow=*/7);
        a.sendPacket(pkt);
    };

    b.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
        if (sent > warmup) {
            ++res.packets;
            res.latency.sample(pkt->oneWayLatency());
            res.totalUs += ticksToUs(pkt->oneWayLatency());
            res.pcieUs += ticksToUs(pkt->pcieTicks);
            for (std::size_t c = 0; c < numLatComps; ++c) {
                res.compUs[c] +=
                    ticksToUs(pkt->lat.comp[c]);
            }
        }
        eq.scheduleRel(usToTicks(2), send_next);
    });

    send_next();
    eq.run();

    if (res.packets > 0) {
        res.totalUs /= res.packets;
        res.pcieUs /= res.packets;
        for (auto &c : res.compUs)
            c /= res.packets;
    }
    return res;
}

} // namespace netdimm
