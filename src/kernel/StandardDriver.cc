#include "kernel/StandardDriver.hh"

namespace netdimm
{

StandardDriver::StandardDriver(EventQueue &eq, std::string name,
                               const SystemConfig &cfg, NicDevice &nic,
                               Llc &llc, CopyEngine &copy,
                               PageAllocator &alloc, bool zero_copy)
    : Driver(eq, std::move(name), cfg, nic), _llc(llc), _copy(copy),
      _alloc(alloc), _zeroCopy(zero_copy)
{
    initRings();
}

void
StandardDriver::initRings()
{
    std::uint32_t entries = _cfg.nicModel.ringEntries;
    std::uint32_t ring_pages =
        (entries * DescriptorRing::descBytes + pageBytes - 1) /
        pageBytes;

    Addr tx_base = _alloc.allocPages(MemZone::Normal, ring_pages);
    Addr rx_base = _alloc.allocPages(MemZone::Normal, ring_pages);
    _nic.txRing().init(tx_base, entries);
    _nic.rxRing().init(rx_base, entries);

    // Pre-post RX DMA buffers; in zero-copy mode these are
    // application pages, otherwise kernel DMA pages.
    for (std::uint32_t i = 0; i + 1 < entries; ++i) {
        Addr buf = _alloc.allocPages(MemZone::Normal, 1);
        _nic.postRxBuffer(buf);
    }
    // TX DMA pool and application RX landing buffers (copy mode).
    // Both pools are sized well past the LLC so steady-state copies
    // run cache-cold, as they do in a real server where buffers churn
    // through a far larger page population.
    std::uint32_t pool_pages =
        std::uint32_t(2 * _cfg.llc.sizeBytes / pageBytes);
    for (std::uint32_t i = 0; i < pool_pages; ++i) {
        _txPool.push_back(_alloc.allocPages(MemZone::Normal, 1));
        _appRxPool.push_back(_alloc.allocPages(MemZone::Normal, 1));
    }
}

Addr
StandardDriver::takeTxBuffer()
{
    ND_ASSERT(!_txPool.empty());
    Addr buf = _txPool.front();
    _txPool.pop_front();
    _txPool.push_back(buf); // simple recycle; TX drains fast
    return buf;
}

void
StandardDriver::kick(const PacketPtr &pkt)
{
    if (_nic.txRing().full()) {
        // Ring exhausted: back off one poll iteration and retry.
        scheduleRel(_cfg.cpu.cycles(_cfg.cpu.pollIterationCycles),
                    [this, pkt] { kick(pkt); });
        return;
    }
    // Descriptor write is a store into the (cached) ring line,
    // folded into the driver-cycle charge applied by the caller.
    _nic.txRing().push(pkt->txBufAddr, curTick());
    countTx();
    trackTx(pkt);
    _nic.transmit(pkt);
}

void
StandardDriver::recoverFromTxHang()
{
    // Salvage the RX buffers still posted in the ring, reset the
    // device, and rebuild the interface: both rings empty, entries-1
    // RX buffers reposted. Dropped TX skbs are stat-counted; a
    // reliable transport retransmits their payloads.
    std::deque<Addr> rx_bufs;
    while (!_nic.rxRing().empty())
        rx_bufs.push_back(_nic.rxRing().pop(curTick()));
    dropInflightTx();
    _nic.reset();
    std::uint32_t entries = _cfg.nicModel.ringEntries;
    for (std::uint32_t i = 0; i + 1 < entries; ++i) {
        Addr buf;
        if (!rx_bufs.empty()) {
            buf = rx_bufs.front();
            rx_bufs.pop_front();
        } else {
            buf = _alloc.allocPages(MemZone::Normal, 1);
        }
        _nic.postRxBuffer(buf);
    }
    for (Addr buf : rx_bufs)
        _alloc.freePages(MemZone::Normal, buf, 1);
}

void
StandardDriver::send(const PacketPtr &pkt)
{
    pkt->born = curTick();

    Tick sw = _cfg.cpu.cycles(_cfg.cpu.txDriverCycles +
                              _cfg.cpu.skbAllocCycles) +
              kernelStackDelay();

    if (_zeroCopy) {
        // The NIC DMA-reads the application page in place; charge the
        // per-packet pin/buffer management instead of the copy. A
        // bare-metal zero-copy driver also skips SKB construction --
        // the application buffer is the packet.
        sw = _cfg.cpu.cycles(_cfg.cpu.txDriverCycles);
        Tick mgmt = _cfg.cpu.cycles(_cfg.sw.zcpyMgmtCycles);
        pkt->txBufAddr = pkt->appSrcAddr;
        scheduleRel(sw + mgmt, [this, pkt] {
            pkt->lat.add(LatComp::TxCopy, curTick() - pkt->born);
            kick(pkt);
        });
        return;
    }

    // Copy mode additionally allocates a DMA buffer for the packet.
    sw += _cfg.cpu.cycles(_cfg.sw.dmaBufAllocCycles);
    Addr dma = takeTxBuffer();
    pkt->txBufAddr = dma;
    scheduleRel(sw, [this, pkt, dma] {
        _copy.copy(dma, pkt->appSrcAddr, pkt->bytes,
                   [this, pkt](Tick t1) {
                       pkt->lat.add(LatComp::TxCopy, t1 - pkt->born);
                       kick(pkt);
                   });
    });
}

void
StandardDriver::processRx(const PacketPtr &pkt, Tick visible,
                          std::function<void()> cpu_done)
{
    // Detection: the polling loop reads the descriptor status word
    // the NIC just wrote into the LLC (DDIO) -- an LLC hit -- or, in
    // Interrupt mode, the (possibly moderated) interrupt wakes the
    // handler. The core may also pick the completion up late if it
    // was busy with a previous packet.
    Tick noticed = noticeAt(visible);
    Tick detect = std::max(noticed, curTick()) + _llc.hitLatency();
    pkt->lat.add(LatComp::IoReg, detect - visible);

    Tick sw = _cfg.cpu.cycles(
        _zeroCopy ? _cfg.cpu.rxDriverCycles
                  : _cfg.cpu.rxDriverCycles + _cfg.cpu.skbAllocCycles);
    sw += kernelStackDelay();

    eventq().schedule(detect + sw, [this, pkt, detect,
                                    cpu_done = std::move(cpu_done)] {
        if (_zeroCopy) {
            // The DMA buffer is an application page already.
            Tick mgmt = _cfg.cpu.cycles(_cfg.sw.zcpyMgmtCycles);
            pkt->appDstAddr = pkt->rxBufAddr;
            scheduleRel(mgmt, [this, pkt, detect,
                               cpu_done = std::move(cpu_done)] {
                Tick t = curTick();
                pkt->lat.add(LatComp::RxCopy, t - detect);
                // Replenish with a fresh application page.
                _nic.postRxBuffer(
                    _alloc.allocPages(MemZone::Normal, 1));
                deliverToApp(pkt, t);
                cpu_done();
            });
            return;
        }
        Addr app = _appRxPool.front();
        _appRxPool.pop_front();
        _appRxPool.push_back(app);
        pkt->appDstAddr = app;
        // Allocate the application-side landing buffer, then copy;
        // the core is busy for the duration of the copy loop.
        Tick alloc = _cfg.cpu.cycles(_cfg.sw.dmaBufAllocCycles);
        scheduleRel(alloc, [this, pkt, detect, app,
                            cpu_done = std::move(cpu_done)] {
            _copy.copy(app, pkt->rxBufAddr, pkt->bytes,
                       [this, pkt, detect,
                        cpu_done = std::move(cpu_done)](Tick t) {
                           pkt->lat.add(LatComp::RxCopy, t - detect);
                           // Recycle the drained DMA buffer.
                           _nic.postRxBuffer(pkt->rxBufAddr);
                           deliverToApp(pkt, t);
                           cpu_done();
                       });
        });
    });
}

} // namespace netdimm
