#include "workload/Scenarios.hh"

namespace netdimm
{

namespace
{

SystemConfig
configFor(NicKind kind, Tick switchLatency)
{
    SystemConfig cfg;
    cfg.nic = kind;
    cfg.eth.switchLatency = switchLatency;
    return cfg;
}

} // namespace

FabricPair::FabricPair(NicKind kind, Tick switchLatency,
                       std::string txName, std::string rxName)
    : cfg(configFor(kind, switchLatency)),
      tx(eq, std::move(txName), cfg, 0),
      rx(eq, std::move(rxName), cfg, 1),
      fabric(eq, "fabric", cfg.eth)
{
    fabric.attach(0, tx.endpoint());
    fabric.attach(1, rx.endpoint());
    tx.setWire([this](const PacketPtr &pkt) { fabric.deliver(pkt); });
    rx.setWire([this](const PacketPtr &pkt) { fabric.deliver(pkt); });
}

void
FabricPair::replay(const std::vector<TraceRecord> &trace)
{
    // The fabric charges each packet its record's locality class.
    Tick t = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord &rec = trace[i];
        t += rec.interArrival;
        eq.schedule(t, [this, rec, i] {
            PacketPtr pkt =
                tx.makeTxPacket(rec.bytes, rx.id(), 1 + (i % 8));
            pkt->locality = rec.locality;
            tx.sendPacket(pkt);
        });
    }
    eq.run();
}

OfferedLoadCell::OfferedLoadCell(NicKind kind)
    : cfg(configFor(kind, EthConfig{}.switchLatency)),
      tx(eq, "tx", cfg, 0),
      rx(eq, "rx", cfg, 1),
      link(eq, "link", cfg.eth)
{
    connectNodes(link, tx, rx);
}

void
OfferedLoadCell::run(double offeredGbps, int npackets)
{
    Random rng(321);
    Tick t = 0;
    double mean_gap_ns = 1460.0 * 8.0 / offeredGbps;
    for (int i = 0; i < npackets; ++i) {
        t += Tick(rng.exponential(mean_gap_ns) * double(tickPerNs));
        eq.schedule(t, [this, i] {
            tx.sendPacket(tx.makeTxPacket(1460, rx.id(), 1 + (i % 8)));
        });
    }
    eq.run();
}

NfCell::NfCell(NicKind kind, NfKind nf, std::string boxName)
    : net(kind, EthConfig{}.switchLatency, "gen", std::move(boxName)),
      harness(net.eq, "nf", net.rx, nf),
      probe(net.eq, "probe", net.rx, nsToTicks(20))
{
}

void
NfCell::run(ClusterType cluster, double gbps, std::uint64_t seed,
            int npackets)
{
    // Warm the co-runner's working set, then start the traffic and
    // drop the warm-up samples.
    const Tick traffic_start = usToTicks(150);
    probe.warmUp();
    probe.start();
    net.eq.schedule(traffic_start, [this] { probe.resetStats(); });

    // Every frame travels at the default (intra-cluster) locality.
    TraceGen tg(cluster, gbps, seed);
    Tick t = traffic_start;
    for (int i = 0; i < npackets; ++i) {
        TraceRecord rec = tg.next();
        t += rec.interArrival;
        net.eq.schedule(t, [this, rec, i] {
            net.tx.sendPacket(net.tx.makeTxPacket(rec.bytes, net.rx.id(),
                                                  1 + (i % 8)));
        });
    }
    net.eq.run(t + usToTicks(50));
    probe.stop();
}

} // namespace netdimm
