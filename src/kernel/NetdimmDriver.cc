#include "kernel/NetdimmDriver.hh"

namespace netdimm
{

NetdimmDriver::NetdimmDriver(EventQueue &eq, std::string name,
                             const SystemConfig &cfg,
                             NetDimmDevice &dev, Llc &llc,
                             CopyEngine &copy, AllocCache &alloc_cache,
                             MemorySystem &mem,
                             std::uint32_t zone_index)
    : Driver(eq, std::move(name), cfg, dev), _dev(dev), _llc(llc),
      _copy(copy), _allocCache(alloc_cache), _mem(mem),
      _zone(netZone(zone_index))
{
    initRings();
}

void
NetdimmDriver::initRings()
{
    std::uint32_t entries = _cfg.nicModel.ringEntries;
    bool fast = false;
    // Descriptor rings live on the NetDIMM zone (requirement of
    // Sec. 4.2.2); __alloc_netdimm_pages(zone, -1).
    Addr tx_base = _allocCache.takeAny(fast);
    Addr rx_base = _allocCache.takeAny(fast);
    _dev.txRing().init(tx_base, entries);
    _dev.rxRing().init(rx_base, entries);

    for (std::uint32_t i = 0; i + 1 < entries; ++i) {
        Addr buf = _allocCache.takeAny(fast);
        _dev.postRxBuffer(buf);
    }
}

void
NetdimmDriver::cloneScattered(const PacketPtr &pkt, Tick t1)
{
    // Scatter-gather cloning: buffers larger than one page are
    // cloned page by page, each destination page allocated on the
    // *same sub-array as its own source page*, so every chunk runs
    // in FPM. This mirrors the paper's scatter-gather DMA buffers
    // whose pages need not be physically contiguous (Sec. 4.2.2).
    std::uint32_t chunks =
        (pkt->bytes + pageBytes - 1) / pageBytes;
    auto finish_chunk = joinParts(chunks, [this, pkt, t1](Tick done) {
        pkt->lat.add(LatComp::RxCopy, done - t1);
        // Recycle the drained DMA buffer and repost a fresh one.
        _allocCache.release(pkt->rxBufAddr);
        bool fast = false;
        _dev.postRxBuffer(_allocCache.takeAny(fast));
        deliverToApp(pkt, done);
    });

    std::uint32_t left = pkt->bytes;
    for (std::uint32_t c = 0; c < chunks; ++c) {
        Addr src = pkt->rxBufAddr + Addr(c) * pageBytes;
        Addr dst;
        if (c == 0) {
            dst = pkt->appDstAddr;
        } else {
            bool fast = false;
            dst = _cfg.netdimm.subArrayHint
                      ? _allocCache.take(src, fast)
                      : _allocCache.takeAny(fast);
            // Extra SKB pages ride the frag list; released with the
            // SKB (off this model's critical path).
            Addr page = dst;
            AllocCache *ac = &_allocCache;
            scheduleRel(usToTicks(20),
                        [ac, page] { ac->release(page); });
        }
        std::uint32_t sz = std::min<std::uint32_t>(left, pageBytes);
        left -= sz;
        _dev.cloneBuffer(
            dst, src, sz,
            [this, dst, src, sz, finish_chunk](Tick t2, CloneMode m) {
                if (m != CloneMode::Failed) {
                    finish_chunk(t2);
                    return;
                }
                // The in-memory clone aborted: redo this chunk on the
                // CopyEngine (the regular CPU/DMA copy path) so the
                // packet is still delivered intact, just slower.
                _cloneFallbacks.inc();
                if (FaultDomain *d = _dev.rowCloneEngine().faultDomain())
                    d->noteRecovered();
                _copy.copy(dst, src, sz, finish_chunk);
            });
    }
}

void
NetdimmDriver::recoverFromTxHang()
{
    // Reclaim the RX buffers still posted in the ring before the
    // reset wipes the indices, then rebuild the interface the way
    // initRings() left it: both rings empty, entries-1 fresh RX
    // buffers posted. The dropped TX skbs are stat-counted; a
    // reliable transport retransmits their payloads.
    while (!_dev.rxRing().empty())
        _allocCache.release(_dev.rxRing().pop(curTick()));
    dropInflightTx();
    _dev.reset();
    bool fast = false;
    for (std::uint32_t i = 0; i + 1 < _cfg.nicModel.ringEntries; ++i)
        _dev.postRxBuffer(_allocCache.takeAny(fast));
}

void
NetdimmDriver::devWrite(Addr addr, std::uint32_t size,
                        MemRequest::Completion cb)
{
    // Device descriptor/register lines are treated as uncacheable:
    // keep the LLC out of the picture and talk to the region handler.
    _llc.invalidate(addr, size);
    auto req = makeMemRequest(addr, size, true, MemSource::HostCpu,
                              std::move(cb));
    _mem.access(req);
}

void
NetdimmDriver::devRead(Addr addr, std::uint32_t size,
                       MemRequest::Completion cb)
{
    auto req = makeMemRequest(addr, size, false, MemSource::HostCpu,
                              std::move(cb));
    _mem.access(req);
}

Addr
NetdimmDriver::allocAppBuffer(std::uint64_t flow_id)
{
    SocketPtr sock = socketFor(flow_id);
    if (!isNetZone(sock->skbZone)) {
        // Connection not pinned yet: buffers come from ZONE_NORMAL;
        // send() will take the COPY_NEEDED slow path.
        return 0;
    }
    bool fast = false;
    return _allocCache.takeAny(fast);
}

void
NetdimmDriver::txFlushAndKick(const PacketPtr &pkt, Tick flush_start)
{
    // Flush the DMA buffer's cachelines to the NetDIMM: clwb issue
    // cost per line on the core, then the payload crosses the host
    // channel into the device (asynchronous posted writes; the
    // completion models the data reaching the local DRAM, which is
    // what guarantees nNIC sees fresh data).
    std::uint32_t lines = pkt->lines();
    Tick issue = _cfg.cpu.cycles(_cfg.cpu.flushIssueCycles * lines);
    _llc.invalidate(pkt->txBufAddr, pkt->bytes);

    scheduleRel(issue, [this, pkt, flush_start] {
        devWrite(pkt->txBufAddr, pkt->bytes,
                 [this, pkt, flush_start](Tick t1) {
            pkt->lat.add(LatComp::TxFlush, t1 - flush_start);

            // Kick: write + flush the descriptor's size/flags word
            // (64 bits -- one cacheline write to the device). This is
            // the NetDIMM doorbell.
            Addr desc =
                _dev.txRing().descAddr(_dev.txRing().tail());
            devWrite(desc, DescriptorRing::descBytes,
                     [this, pkt, t1](Tick t2) {
                pkt->lat.add(LatComp::IoReg, t2 - t1);
                if (!_dev.txRing().full()) {
                    _dev.txRing().push(pkt->txBufAddr, curTick());
                    countTx();
                    trackTx(pkt);
                    _dev.transmit(pkt);
                } else {
                    scheduleRel(_cfg.cpu.cycles(
                                    _cfg.cpu.pollIterationCycles),
                                [this, pkt, t1] {
                                    txFlushAndKick(pkt, t1);
                                });
                }
            });
        });
    });
}

void
NetdimmDriver::send(const PacketPtr &pkt)
{
    pkt->born = curTick();
    SocketPtr sock = socketFor(pkt->flowId);

    Tick sw = _cfg.cpu.cycles(_cfg.cpu.txDriverCycles +
                              _cfg.cpu.skbAllocCycles) +
              kernelStackDelay();

    bool copy_needed = !isNetZone(sock->skbZone) ||
                       pkt->appSrcAddr < _dev.regionBase();

    if (!copy_needed) {
        // Fast path: the SKB data already lives on the NetDIMM; it
        // *is* the DMA buffer (Alg. 1 line 8). The SKB bookkeeping
        // cycles are the only "copy-side" software work left.
        _fastTx.inc();
        pkt->txBufAddr = pkt->appSrcAddr;
        scheduleRel(sw, [this, pkt] {
            pkt->lat.add(LatComp::TxCopy, curTick() - pkt->born);
            txFlushAndKick(pkt, curTick());
        });
        return;
    }

    // Slow path (COPY_NEEDED): allocate a DMA buffer on the NetDIMM,
    // copy the SKB into it, and memoize the zone on the socket.
    _slowTx.inc();
    scheduleRel(sw, [this, pkt, sock] {
        bool fast = false;
        Addr dma = _allocCache.takeAny(fast);
        Tick alloc_extra =
            fast ? 0 : _cfg.cpu.cycles(_cfg.sw.allocSlowPathCycles);
        pkt->txBufAddr = dma;
        scheduleRel(alloc_extra, [this, pkt, sock] {
            _copy.copy(pkt->txBufAddr, pkt->appSrcAddr, pkt->bytes,
                       [this, pkt, sock](Tick t1) {
                           pkt->lat.add(LatComp::TxCopy,
                                        t1 - pkt->born);
                           sock->skbZone = _zone;
                           txFlushAndKick(pkt, t1);
                       });
        });
    });
}

void
NetdimmDriver::processRx(const PacketPtr &pkt, Tick visible,
                         std::function<void()> cpu_done)
{
    // Detection (polling phase or moderated interrupt), then the
    // final iteration invalidates the descriptor line so the next
    // load fetches fresh data from the NetDIMM (Alg. 1 line 12) and
    // reads it -- nController serves it out of nCache. A busy core
    // picks the completion up late.
    Tick noticed = noticeAt(visible);
    Tick phase = noticed - visible;
    Tick inval = _cfg.cpu.cycles(_cfg.cpu.flushIssueCycles);
    Addr desc = _dev.rxRing().descAddr(_dev.rxRing().head());
    _llc.invalidate(desc, DescriptorRing::descBytes);
    pkt->lat.add(LatComp::RxInvalidate, inval);

    Tick start = std::max(noticed, curTick());
    eventq().schedule(start + inval,
                      [this, pkt, visible, phase,
                       cpu_done = std::move(cpu_done)] {
        Tick poll_start = curTick() - phase - _cfg.cpu.cycles(
                                                  _cfg.cpu.flushIssueCycles);
        Addr desc = _dev.rxRing().descAddr(_dev.rxRing().head());
        devRead(desc, DescriptorRing::descBytes,
                [this, pkt, phase, poll_start,
                 cpu_done = std::move(cpu_done)](Tick t1) {
            // Poll phase + the asynchronous descriptor read.
            pkt->lat.add(LatComp::IoReg,
                         phase + (t1 - poll_start - phase));

            // SKB creation + header processing: the header line is
            // the packet's first cacheline, freshly parked in nCache.
            Tick sw = _cfg.cpu.cycles(_cfg.cpu.rxDriverCycles +
                                      _cfg.cpu.skbAllocCycles) +
                      kernelStackDelay();
            scheduleRel(sw, [this, pkt, t1,
                             cpu_done = std::move(cpu_done)] {
                devRead(pkt->rxBufAddr, cachelineBytes,
                        [this, pkt, t1,
                         cpu_done = std::move(cpu_done)](Tick) {
                    // rxSKB.data = allocCache[rxDesc.dma]: a page on
                    // the same sub-array, so the clone runs in FPM
                    // (unless the hint is disabled for ablation).
                    bool fast = false;
                    Addr skb_data =
                        _cfg.netdimm.subArrayHint
                            ? _allocCache.take(pkt->rxBufAddr, fast)
                            : _allocCache.takeAny(fast);
                    Tick alloc_extra =
                        fast ? 0
                             : _cfg.cpu.cycles(
                                   _cfg.sw.allocSlowPathCycles);
                    pkt->appDstAddr = skb_data;

                    scheduleRel(alloc_extra, [this, pkt, t1,
                                              cpu_done = std::move(
                                                  cpu_done)] {
                        // netdimmClone(dst, src, size): write the
                        // three argument registers (posted, one
                        // line), then the in-memory clone runs. The
                        // *core* is done once the registers are
                        // written -- the clone executes inside the
                        // DIMM, so the CPU can pick up the next
                        // packet while it completes.
                        devWrite(_dev.regPageAddr(), cachelineBytes,
                                 nullptr);
                        cloneScattered(pkt, t1);
                        cpu_done();
                    });
                });
            });
        });
    });
}

} // namespace netdimm
