#include "nic/DiscreteNic.hh"

namespace netdimm
{

DiscreteNic::DiscreteNic(EventQueue &eq, std::string name,
                         const SystemConfig &cfg, PcieLink &pcie,
                         Llc &llc)
    : SimObject(eq, std::move(name)), NicDevice(eq, cfg), _pcie(pcie),
      _llc(llc)
{}

void
DiscreteNic::transmit(const PacketPtr &pkt)
{
    if (faultTxCheck(pkt))
        return;

    // Timestamps threaded through the TX pipeline stages.
    struct Ctx
    {
        Tick doorbellSent = 0;  ///< driver rang the doorbell
        Tick atNic = 0;         ///< doorbell landed at the NIC
        Tick descFetched = 0;   ///< TX descriptor in the NIC
        Addr descAddr = 0;
    };
    auto ctx = std::allocate_shared<Ctx>(PoolAlloc<Ctx>{});
    ctx->descAddr = _txRing.descAddr(_txRing.tail());

    // Stage 0 -- T1: the driver checks the NIC status register, a
    // non-posted MMIO read over PCIe (a full link round trip).
    Tick t_check = curTick();
    _pcie.mmioRead([this, pkt, ctx, t_check](Tick t_status) {
        pkt->lat.add(LatComp::IoReg, t_status - t_check);
        pkt->pcieTicks += t_status - t_check;
        ctx->doorbellSent = t_status;

    // Stage 1 -- doorbell: MMIO posted write to the tail register.
    _pcie.mmioWrite([this, pkt, ctx](Tick t) {
        ctx->atNic = t;
        pkt->lat.add(LatComp::IoReg, t - ctx->doorbellSent);
        pkt->pcieTicks += t - ctx->doorbellSent;

        // Stage 2 -- descriptor fetch: MRd upstream, serviced by the
        // root complex (LLC hit in the common case since the driver
        // just wrote it), completion back downstream.
        _pcie.sendHeader(PcieDir::Upstream, [this, pkt, ctx](Tick t2) {
            pkt->pcieTicks += t2 - ctx->atNic;
            _llc.dmaRead(ctx->descAddr, DescriptorRing::descBytes,
                         MemSource::HostDma,
                         [this, pkt, ctx, t2](Tick t3) {
                _pcie.postedWrite(DescriptorRing::descBytes,
                                  PcieDir::Downstream,
                                  [this, pkt, ctx, t3](Tick t4) {
                    pkt->pcieTicks += t4 - t3;
                    ctx->descFetched = t4;

                    // Stage 3 -- payload DMA out of host memory.
                    _pcie.sendHeader(PcieDir::Upstream,
                                     [this, pkt, ctx](Tick t5) {
                        pkt->pcieTicks += t5 - ctx->descFetched;
                        _llc.dmaRead(pkt->txBufAddr, pkt->bytes,
                                     MemSource::HostDma,
                                     [this, pkt, ctx](Tick t6) {
                            _pcie.postedWrite(pkt->bytes,
                                              PcieDir::Downstream,
                                              [this, pkt, ctx,
                                               t6](Tick t7) {
                                pkt->pcieTicks += t7 - t6;
                                Tick pipe =
                                    _cfg.nicModel.pipelineLatency;
                                pkt->lat.add(LatComp::TxDma,
                                             (t7 + pipe) - ctx->atNic);
                                scheduleRel(pipe, [this, pkt] {
                                    sendToWire(pkt);
                                });
                            });
                        });
                    });
                });
            });
        });
    });
    });
}

void
DiscreteNic::rxPath(const PacketPtr &pkt)
{
    if (_rxRing.empty()) {
        dropRx(pkt);
        return;
    }
    Tick t0 = curTick();
    Addr buf = _rxRing.pop(curTick());
    pkt->rxBufAddr = buf;
    Addr desc_addr = _rxRing.descAddr(_rxRing.head());

    // RX descriptors are assumed prefetched ahead of arrival, as
    // real NICs batch-prefetch them, so the descriptor *fetch* is
    // off the critical path and not modelled; the
    // payload write and the descriptor status writeback are posted
    // writes upstream, landing in the DDIO ways of the LLC.
    Tick pipe = _cfg.nicModel.pipelineLatency;
    scheduleRel(pipe, [this, pkt, t0, buf, desc_addr] {
        _pcie.postedWrite(pkt->bytes, PcieDir::Upstream,
                          [this, pkt, t0, buf, desc_addr](Tick t1) {
            _llc.dmaWrite(buf, pkt->bytes, MemSource::HostDma,
                          [this, pkt, t0, t1, desc_addr](Tick t2) {
                _pcie.postedWrite(DescriptorRing::descBytes,
                                  PcieDir::Upstream,
                                  [this, pkt, t0, t1, t2,
                                   desc_addr](Tick t3) {
                    _llc.dmaWrite(desc_addr, DescriptorRing::descBytes,
                                  MemSource::HostDma,
                                  [this, pkt, t0, t1, t2, t3](Tick t4) {
                        pkt->lat.add(LatComp::RxDma, t4 - t0);
                        pkt->pcieTicks += (t1 - t0) + (t3 - t2);
                        notifyDriverRx(pkt, t4);
                    });
                });
            });
        });
    });
}

} // namespace netdimm
