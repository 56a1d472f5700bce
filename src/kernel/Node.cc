#include "kernel/Node.hh"

namespace netdimm
{

Node::Node(EventQueue &eq, std::string name, const SystemConfig &cfg,
           std::uint32_t id)
    : SimObject(eq, std::move(name)), _cfg(cfg), _id(id)
{
    if (_cfg.faults.enabled)
        _faults = std::make_unique<FaultRegistry>(_cfg.seed);
    _mem = std::make_unique<MemorySystem>(eq, this->name() + ".mem",
                                          _cfg);
    _llc = std::make_unique<Llc>(eq, this->name() + ".llc", _cfg.llc,
                                 _cfg.cpu, *_mem);
    _copy = std::make_unique<CopyEngine>(eq, this->name() + ".copy",
                                         _cfg, *_llc);

    // ZONE_NORMAL pool: the conventional interleaved region minus a
    // low reserve.
    Addr normal_base = 1ull << 20;
    std::uint64_t normal_bytes =
        _cfg.hostMem.totalBytes() - normal_base;
    _alloc = std::make_unique<PageAllocator>(normal_base, normal_bytes);

    switch (_cfg.nic) {
      case NicKind::Discrete:
      case NicKind::DiscreteZeroCopy: {
        _pcie = std::make_unique<PcieLink>(eq, this->name() + ".pcie",
                                           _cfg.pcie);
        _nic = std::make_unique<DiscreteNic>(
            eq, this->name() + ".dnic", _cfg, *_pcie, *_llc);
        _dev = _nic.get();
        _driver = std::make_unique<StandardDriver>(
            eq, this->name() + ".driver", _cfg, *_nic, *_llc, *_copy,
            *_alloc, _cfg.nic == NicKind::DiscreteZeroCopy);
        break;
      }
      case NicKind::Integrated:
      case NicKind::IntegratedZeroCopy: {
        _nic = std::make_unique<IntegratedNic>(
            eq, this->name() + ".inic", _cfg, *_llc, *_mem);
        _dev = _nic.get();
        _driver = std::make_unique<StandardDriver>(
            eq, this->name() + ".driver", _cfg, *_nic, *_llc, *_copy,
            *_alloc, _cfg.nic == NicKind::IntegratedZeroCopy);
        break;
      }
      case NicKind::NetDimm: {
        // Install the NetDIMM on host channel 0; its local DRAM maps
        // into the host address space in single-channel (flex) mode.
        _netdimm = std::make_unique<NetDimmDevice>(
            eq, this->name() + ".netdimm", _cfg, _mem->channel(0));
        _dev = _netdimm.get();
        Addr base = _mem->attachNetDimm(_netdimm->mappedBytes(), 0,
                                        *_netdimm);
        _netdimm->setRegionBase(base);

        _zoneAlloc = std::make_unique<NetdimmZoneAllocator>(
            base, NetDimmDevice::localGeometry(_cfg));
        _alloc->addNetZone(0, _zoneAlloc.get());
        _allocCache = std::make_unique<AllocCache>(
            eq, this->name() + ".alloccache", *_zoneAlloc,
            _cfg.netdimm.allocCachePagesPerSubArray);
        _driver = std::make_unique<NetdimmDriver>(
            eq, this->name() + ".driver", _cfg, *_netdimm, *_llc,
            *_copy, *_allocCache, *_mem);
        break;
      }
    }

    // Fault wiring: every fallible layer gets its own named domain so
    // the schedule is a pure function of (seed, domain name).
    if (_faults) {
        const FaultModelConfig *fc = &_cfg.faults;
        for (std::uint32_t c = 0; c < _mem->numChannels(); ++c)
            _mem->channel(c).setFaultInjection(
                &_faults->domain(this->name() + ".mem.ch" +
                                 std::to_string(c)),
                fc);
        if (_nic)
            _nic->setFaultDomain(
                &_faults->domain(this->name() + ".nic.dev"));
        if (_netdimm) {
            _netdimm->localMc().setFaultInjection(
                &_faults->domain(this->name() + ".netdimm.mem"), fc);
            _netdimm->setFaultDomain(
                &_faults->domain(this->name() + ".netdimm.dev"));
            _netdimm->rowCloneEngine().setFaultInjection(
                &_faults->domain(this->name() + ".netdimm.rowclone"),
                fc->rowCloneFailProb);
            if (HandlerStage *hs = _netdimm->handlers())
                hs->setFaultInjection(
                    &_faults->domain(this->name() + ".netdimm.handler"),
                    fc);
        }
    }

    // Application buffer pool for workload sources.
    for (int i = 0; i < 64; ++i)
        _appPages.push_back(_alloc->allocPages(MemZone::Normal, 1));
}

void
Node::setWire(std::function<void(const PacketPtr &)> wire)
{
    _dev->setWire(std::move(wire));
}

void
Node::connectTo(EthLink &link)
{
    EthLink *l = &link;
    NetEndpoint *self = endpoint();
    _wire = l;
    setWire([l, self](const PacketPtr &pkt) { l->send(self, pkt); });
}

void
connectNodes(EthLink &link, Node &a, Node &b)
{
    link.connect(a.endpoint(), b.endpoint());
    a.connectTo(link);
    b.connectTo(link);
}

PacketPtr
Node::makeTxPacket(std::uint32_t bytes, std::uint32_t dst,
                   std::uint64_t flow)
{
    PacketPtr pkt = makePacket(eventq(), bytes, _id, dst);
    pkt->flowId = flow;

    if (_netdimm) {
        auto *drv = static_cast<NetdimmDriver *>(_driver.get());
        Addr buf = drv->allocAppBuffer(flow);
        if (buf != 0) {
            pkt->appSrcAddr = buf;
            // Return the page to allocCache once the frame has long
            // left the device (completion cleanup, off critical path).
            Addr page = buf;
            AllocCache *ac = _allocCache.get();
            scheduleRel(usToTicks(20),
                        [ac, page] { ac->release(page); });
            return pkt;
        }
    }
    pkt->appSrcAddr = _appPages[_appCursor];
    _appCursor = (_appCursor + 1) % _appPages.size();
    return pkt;
}

void
Node::sendPacket(const PacketPtr &pkt)
{
    // A powered-off node sends nothing: a workload timer that
    // outlived the crash finds the TX path gone, exactly like a
    // process whose host died under it.
    if (!_alive)
        return;
    _driver->send(pkt);
}

void
Node::crash()
{
    ND_ASSERT(_alive);
    _alive = false;
    ++_bootGen;
    _crashes.inc();
    // Carrier drops first: frames in flight toward us die by the
    // PR 3 epoch rule, and the fabric sees the port go away.
    if (_wire)
        _wire->setLinkState(false);
    _driver->powerFail();
    _dev->powerFail();
}

void
Node::restart()
{
    ND_ASSERT(!_alive);
    _restarts.inc();
    // Cold boot: device function-reset (clears the power-dead latch),
    // rings rebuilt, RX buffers reposted — the TX-hang recovery
    // recipe reused as the boot path.
    _driver->coldBoot();
    _driver->powerRestore();
    _alive = true;
    if (_wire)
        _wire->setLinkState(true);
    if (_coldBoot)
        _coldBoot();
}

void
Node::setReceiveHandler(Driver::RxHandler h)
{
    _driver->setRxHandler(std::move(h));
}

void
Node::cpuAccess(Addr addr, std::uint32_t size, bool write,
                MemRequest::Completion cb)
{
    _llc->access(addr, size, write, MemSource::HostCpu, std::move(cb));
}

Addr
Node::allocWorkloadPage()
{
    return _alloc->allocPages(MemZone::Normal, 1);
}

void
Node::printStats(std::ostream &os) const
{
    using stats::StatGroup;

    StatGroup drv(name() + ".driver");
    drv.add("txPackets", double(_driver->txPackets()));
    drv.add("rxPackets", double(_driver->rxPackets()));
    drv.add("txHangRecoveries", double(_driver->txHangRecoveries()));
    drv.add("skbsDroppedOnReset",
            double(_driver->skbsDroppedOnReset()));
    drv.add("recoveryLatency", _driver->recoveryLatencyUs().mean(),
            "us");
    drv.print(os);

    // Whole-node lifecycle counters: one stable-order group on every
    // node kind (all zero outside the cluster workload). The serving
    // roles count resync bytes, redirects and stale reads themselves
    // and report them in ServingResult.
    StatGroup life(name() + ".lifecycle");
    life.add("crashesInjected", double(_crashes.value()));
    life.add("restarts", double(_restarts.value()));
    life.print(os);

    StatGroup cache(name() + ".llc");
    cache.add("hits", double(_llc->hits()));
    cache.add("misses", double(_llc->misses()));
    cache.add("writebacks", double(_llc->writebacks()));
    cache.add("ddioInserts", double(_llc->ddioInserts()));
    cache.add("ddioLeaks", double(_llc->ddioLeaks()));
    cache.print(os);

    for (std::uint32_t c = 0; c < _mem->numChannels(); ++c) {
        const MemoryController &mc = _mem->channel(c);
        StatGroup ch(name() + ".mc" + std::to_string(c));
        ch.add("beats", double(mc.beatsServiced()));
        ch.add("rowHits", double(mc.rowHits()));
        ch.add("rowMisses", double(mc.rowMisses()));
        ch.add("busUtilization", mc.busUtilization());
        ch.add("meanReadLatency", mc.meanReadLatencyNs(), "ns");
        ch.add("eccCorrectable", double(mc.eccCorrectable()));
        ch.add("eccUncorrectable", double(mc.eccUncorrectable()));
        ch.print(os);
    }

    if (_nic) {
        StatGroup nic(name() + ".nic");
        nic.add("txFrames", double(_nic->txFrames()));
        nic.add("rxFrames", double(_nic->rxFrames()));
        nic.add("rxDrops", double(_nic->rxDrops()));
        nic.add("hangs", double(_nic->hangs()));
        nic.add("resets", double(_nic->resets()));
        nic.add("txDmaDrops", double(_nic->txDmaDrops()));
        nic.print(os);
    }
    if (_pcie) {
        StatGroup p(name() + ".pcie");
        p.add("tlpsSent", double(_pcie->tlpsSent()));
        p.add("payloadBytes", double(_pcie->payloadBytes()));
        p.print(os);
    }
    if (_netdimm) {
        StatGroup nd(name() + ".netdimm");
        nd.add("txFrames", double(_netdimm->txFrames()));
        nd.add("rxFrames", double(_netdimm->rxFrames()));
        nd.add("rxDrops", double(_netdimm->rxDrops()));
        nd.add("hostReads", double(_netdimm->hostReads()));
        nd.add("hostWrites", double(_netdimm->hostWrites()));
        nd.add("prefetchesIssued",
               double(_netdimm->prefetchesIssued()));
        nd.add("hangs", double(_netdimm->hangs()));
        nd.add("resets", double(_netdimm->resets()));
        nd.add("txDmaDrops", double(_netdimm->txDmaDrops()));
        nd.add("txPoisonDrops", double(_netdimm->txPoisonDrops()));
        nd.print(os);

        StatGroup nc(name() + ".netdimm.ncache");
        nc.add("hits", double(_netdimm->ncache().hits()));
        nc.add("misses", double(_netdimm->ncache().misses()));
        nc.add("inserts", double(_netdimm->ncache().inserts()));
        nc.add("evictions", double(_netdimm->ncache().evictions()));
        nc.add("occupancy", double(_netdimm->ncache().occupancy()));
        nc.add("reinserts", double(_netdimm->ncache().reinserts()));
        nc.add("invalidations",
               double(_netdimm->ncache().invalidations()));
        nc.print(os);

        if (const HandlerStage *hs = _netdimm->handlers()) {
            StatGroup h(name() + ".netdimm.handlers");
            h.add("accepted", double(hs->accepted()));
            h.add("overflows", double(hs->overflows()));
            h.add("invocations", double(hs->invocations()));
            h.add("replies", double(hs->replies()));
            h.add("shedExpired", double(hs->shedExpired()));
            h.add("hangFaults", double(hs->hangFaults()));
            h.add("crashFaults", double(hs->crashFaults()));
            h.add("corruptNacks", double(hs->corruptNacks()));
            h.add("watchdogResets", double(hs->watchdogResets()));
            h.add("drainedToHost", double(hs->drainedToHost()));
            h.add("faultFallbacks", double(hs->faultFallbacks()));
            h.add("maxQueueDepth", double(hs->maxQueueDepth()));
            h.add("coreUtilization", hs->coreUtilization());
            h.add("busFraction",
                  _netdimm->localMc().handlerBusFraction());
            h.print(os);
        }

        const RowCloneEngine &rc = _netdimm->rowCloneEngine();
        StatGroup cl(name() + ".netdimm.rowclone");
        cl.add("fpmClones", double(rc.fpmClones()));
        cl.add("psmClones", double(rc.psmClones()));
        cl.add("gcmClones", double(rc.gcmClones()));
        cl.add("bytesCloned", double(rc.bytesCloned()));
        cl.add("failedClones", double(rc.failedClones()));
        cl.add("cloneFallbacks",
               double(static_cast<NetdimmDriver *>(_driver.get())
                          ->cloneFallbacks()));
        cl.print(os);

        StatGroup ac(name() + ".alloccache");
        ac.add("cachedPages", double(_allocCache->cachedPages()));
        ac.add("fastHits", double(_allocCache->fastHits()));
        ac.add("slowAllocs", double(_allocCache->slowAllocs()));
        ac.print(os);
    }

    if (_wire) {
        StatGroup w(name() + ".wire");
        w.add("up", _wire->up() ? 1.0 : 0.0);
        w.add("framesCarried", double(_wire->framesCarried()));
        w.add("bytesCarried", double(_wire->bytesCarried()));
        w.add("framesDropped", double(_wire->framesDropped()));
        w.add("framesCorrupted", double(_wire->framesCorrupted()));
        w.add("framesDroppedLinkDown",
              double(_wire->framesDroppedLinkDown()));
        w.add("downEvents", double(_wire->downEvents()));
        w.print(os);
    }

    if (_faults) {
        os << name() << ".faults (master seed "
           << _faults->masterSeed() << ")\n";
        _faults->print(os);
    }
}

} // namespace netdimm
