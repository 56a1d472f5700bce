#include "workload/NfHarness.hh"

namespace netdimm
{

const char *
nfKindName(NfKind k)
{
    return k == NfKind::L3Forward ? "L3F" : "DPI";
}

NfHarness::NfHarness(EventQueue &eq, std::string name, Node &node,
                     NfKind kind)
    : SimObject(eq, std::move(name)), _node(node), _kind(kind)
{
    _node.endpoint()->setRxNotify([this](const PacketPtr &pkt, Tick t) {
        onRxVisible(pkt, t);
    });
}

void
NfHarness::replenish()
{
    bool fast = false;
    Addr buf = _node.netdimm()
                   ? _node.allocCache()->takeAny(fast)
                   : _node.pageAlloc().allocPages(MemZone::Normal, 1);
    _node.endpoint()->postRxBuffer(buf);
}

void
NfHarness::onRxVisible(const PacketPtr &pkt, Tick visible)
{
    _processed.inc();
    // Poll detection + descriptor read are cheap relative to the
    // processing reads; model them as one LLC-hit-class access.
    std::uint32_t read_bytes =
        _kind == NfKind::L3Forward ? cachelineBytes : pkt->bytes;

    // The NF's demand reads: header only (L3F, served by nCache /
    // LLC) or the entire payload (DPI, streamed through the cache
    // hierarchy -- from the NetDIMM this crosses the host channel).
    _node.cpuAccess(pkt->rxBufAddr, read_bytes, false,
                    [this, pkt, visible](Tick t1) {
                        forward(pkt, visible);
                        (void)t1;
                    });
}

void
NfHarness::forward(const PacketPtr &pkt, Tick t0)
{
    // Forward from the same buffer; the TX path reads it wherever it
    // lives (NetDIMM local DRAM / LLC / host DRAM).
    PacketPtr fwd =
        makePacket(_node.eventq(), pkt->bytes, _node.id(), pkt->srcNode);
    fwd->txBufAddr = pkt->rxBufAddr;
    fwd->born = curTick();

    NicDevice *dev = _node.endpoint();
    if (_node.netdimm()) {
        // Descriptor kick: one posted line write to the device.
        Addr desc = dev->txRing().descAddr(dev->txRing().tail());
        auto req = makeMemRequest(desc, DescriptorRing::descBytes,
                                  true, MemSource::HostCpu, nullptr);
        _node.mem().access(req);
    }
    if (!dev->txRing().full())
        dev->txRing().push(fwd->txBufAddr);
    dev->transmit(fwd);
    _forwarded.inc();
    _procNs.sample(ticksToNs(curTick() - t0));

    // Recycle the buffer back onto the RX ring once the forwarded
    // frame has surely left the NIC -- real rings reuse the same
    // buffer population, which is what lets DDIO overwrite dirty
    // packet lines in place instead of writing them back.
    Addr buf = pkt->rxBufAddr;
    scheduleRel(usToTicks(10), [dev, buf] { dev->postRxBuffer(buf); });
}

} // namespace netdimm
