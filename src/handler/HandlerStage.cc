#include "handler/HandlerStage.hh"

#include <algorithm>

namespace netdimm
{

HandlerStage::HandlerStage(EventQueue &eq, std::string name,
                           const SystemConfig &cfg,
                           MemTarget &local_mem,
                           std::uint64_t local_bytes)
    : SimObject(eq, std::move(name)), _cfg(cfg.handler),
      _pipeLatency(cfg.nicModel.pipelineLatency),
      _ctrlLatency(cfg.netdimm.controllerLatency),
      _localBytes(local_bytes), _mem(local_mem)
{
    ND_ASSERT(_cfg.cores > 0 && _cfg.runQueueDepth > 0);
    _cores.resize(_cfg.cores);
    _kv.buckets = 1ull << 15;
    _kv.slots = 1ull << 15;
    _kv.valueBytes = 256;
    carveRegions();
}

void
HandlerStage::carveRegions()
{
    // The KV store lives at the top of the local DRAM, above the
    // RX/TX buffer space the driver manages at the bottom.
    std::uint64_t values =
        _kv.slots * std::uint64_t(_kv.valueStride());
    std::uint64_t buckets = _kv.buckets * cachelineBytes;
    ND_ASSERT(values + buckets < _localBytes / 2);
    _kv.valueBase = _localBytes - values;
    _kv.bucketBase = _kv.valueBase - buckets;
}

void
HandlerStage::configureKv(std::uint64_t buckets, std::uint64_t slots,
                          std::uint32_t value_bytes)
{
    ND_ASSERT(buckets > 0 && slots > 0 && value_bytes > 0);
    _kv.buckets = buckets;
    _kv.slots = slots;
    _kv.valueBytes = value_bytes;
    carveRegions();
}

void
HandlerStage::setFaultInjection(FaultDomain *domain,
                                const FaultModelConfig *fc)
{
    _faults = domain;
    if (!domain || !fc) {
        _faults = nullptr;
        _hangProb = _crashProb = _kvCorruptProb = 0.0;
        return;
    }
    _hangProb = fc->handlerHangProb;
    _crashProb = fc->handlerCrashProb;
    _kvCorruptProb = fc->kvCorruptProb;
    _crashDetectCycles = fc->handlerCrashDetectCycles;
    _stallTimeout = fc->handlerStallTimeout;
    _watchdogPeriod = fc->handlerWatchdogPeriod;
}

void
HandlerStage::serve(RpcOp op)
{
    ND_ASSERT(op == RpcOp::Get || op == RpcOp::Put);
    _servedOps |= std::uint8_t(1u << unsigned(op));
}

bool
HandlerStage::offer(const PacketPtr &pkt)
{
    if (!(_servedOps & (1u << unsigned(pkt->rpcOp))))
        return false;

    if (_busyCores >= _cfg.cores &&
        _queue.size() >= _cfg.runQueueDepth) {
        _overflows.inc();
        return false;
    }

    _accepted.inc();
    _queue.push_back(pkt);
    if (_queue.size() > _maxQueue.value())
        _maxQueue.inc(_queue.size() - _maxQueue.value());
    tryDispatch();
    return true;
}

void
HandlerStage::tryDispatch()
{
    while (_busyCores < _cfg.cores && !_queue.empty()) {
        PacketPtr pkt = std::move(_queue.front());
        _queue.pop_front();
        // Deadline-aware admission: a frame that cannot make its
        // deadline anyway is shed here, before it burns a core. The
        // client's timeout/retry machinery owns the request now.
        if (_cfg.dropExpiredAtDispatch && pkt->rpcDeadline != 0 &&
            curTick() + _cfg.dispatchMargin >= pkt->rpcDeadline) {
            _shedExpired.inc();
            continue;
        }
        std::size_t core = 0;
        while (core < _cores.size() && _cores[core].busy)
            ++core;
        ND_ASSERT(core < _cores.size());
        ++_busyCores;
        startInvocation(core, std::move(pkt));
    }
}

void
HandlerStage::startInvocation(std::size_t core, PacketPtr pkt)
{
    Core &c = _cores[core];
    c.busy = true;
    c.startTick = curTick();
    c.pkt = std::move(pkt);

    // Fault rolls: exactly two uniforms per invocation whenever a
    // domain is wired, so the schedule never depends on the
    // configured probabilities (zero-rate rows stay bit-identical).
    bool hang = false, crash = false;
    if (_faults) {
        double u1 = _faults->uniform();
        double u2 = _faults->uniform();
        hang = u1 < _hangProb;
        crash = !hang && u2 < _crashProb;
        if (hang || crash)
            _faults->noteInjected();
    }

    if (hang) {
        // The core wedges mid-dispatch: no KV body, no completion.
        // Only the watchdog can free it.
        c.hung = true;
        _hangFaults.inc();
        armWatchdog();
        return;
    }

    // nNIC pipeline hands the frame over, nController routes it to
    // the core, the core runs the dispatch trampoline; then the KV
    // body (cycles + memory accesses) runs to completion.
    Tick lead = _pipeLatency + _ctrlLatency +
                _cfg.cycles(_cfg.dispatchCycles);
    if (crash) {
        // The body traps partway through: no memory traffic, the
        // frame bounces to the host once the trap is detected.
        c.crashed = true;
        _crashFaults.inc();
        armWatchdog();
        scheduleRel(lead + _cfg.cycles(_crashDetectCycles),
                    [this, core, gen = c.gen] {
                        abortInvocation(core, gen);
                    });
        return;
    }

    if (_faults)
        armWatchdog();
    std::uint64_t h = handlerHash(c.pkt->rpcKey);
    bool put = c.pkt->rpcOp == RpcOp::Put;
    scheduleRel(lead, [this, core, gen = c.gen, h, put] {
        runKv(core, gen, h, put);
    });
}

void
HandlerStage::runKv(std::size_t core, std::uint64_t gen,
                    std::uint64_t h, bool put)
{
    // Read the bucket cacheline of key hash @p h, then read (GET) or
    // write (PUT) the value slot. Every access goes through the local
    // nMC as handler-class traffic. Payload contents are not
    // simulated, only where the bytes live and how long the core is
    // busy.
    Addr bucket = _kv.bucketAddr(h);
    scheduleRel(_cfg.cycles(_cfg.kvCycles), [this, core, gen, h, put,
                                             bucket] {
        auto probe = makeMemRequest(
            bucket, cachelineBytes, false, MemSource::Handler,
            [this, core, gen, h, put](Tick) {
                std::uint32_t bytes = _kv.valueBytes;
                auto access = makeMemRequest(
                    _kv.valueAddr(h), bytes, put, MemSource::Handler,
                    [this, core, gen, put, bytes](Tick) {
                        // A GET's value read runs a checksum verify:
                        // a corrupt hit NACKs instead of replying.
                        bool nack = !put && drawKvCorrupt();
                        finishInvocation(core, gen,
                                         nack  ? 0u
                                         : put ? 64u
                                               : bytes);
                    });
                _mem.access(access);
            });
        _mem.access(probe);
    });
}

bool
HandlerStage::drawKvCorrupt()
{
    if (!_faults)
        return false;
    bool hit = _faults->uniform() < _kvCorruptProb;
    if (hit)
        _faults->noteInjected();
    return hit;
}

void
HandlerStage::finishInvocation(std::size_t core, std::uint64_t gen,
                               std::uint32_t reply_bytes)
{
    Core &c = _cores[core];
    if (c.gen != gen)
        return; // watchdog reset this core mid-invocation
    _invocations.inc();
    PacketPtr pkt = c.pkt;
    releaseCore(core);

    if (reply_bytes == 0) {
        // Checksum verify failed: NACK, serve from the authoritative
        // host store. This is the one recovery note for the injected
        // corruption.
        _corruptNacks.inc();
        _faultFallbacks.inc();
        if (_faults)
            _faults->noteRecovered();
        ND_ASSERT(_hostRx);
        _hostRx(pkt);
    } else {
        _replies.inc();
        PacketPtr resp =
            makePacket(eventq(), std::max(reply_bytes, 64u),
                       pkt->dstNode, pkt->srcNode);
        resp->flowId = pkt->flowId;
        resp->rpcOp = RpcOp::Resp;
        resp->rpcKey = pkt->rpcKey;
        // Logical KV key rides along; the version stays 0 — the
        // handler serves from on-DIMM state and carries no
        // replication metadata (cluster clients treat a version-0
        // reply as unversioned).
        resp->rpcKvKey = pkt->rpcKvKey;
        resp->born = curTick();
        // The reply leaves through the nNIC TX pipeline; no host
        // descriptor, no driver, no DMA.
        scheduleRel(_pipeLatency, [this, resp] {
            ND_ASSERT(_tx);
            _tx(resp);
        });
    }

    tryDispatch();
}

void
HandlerStage::powerCycle()
{
    _queue.clear();
    for (std::size_t i = 0; i < _cores.size(); ++i) {
        Core &c = _cores[i];
        if (!c.busy)
            continue;
        bool faulted = c.hung || c.crashed;
        releaseCore(i);
        if (faulted && _faults)
            _faults->noteRecovered();
    }
    _servedOps = 0;
}

void
HandlerStage::abortInvocation(std::size_t core, std::uint64_t gen)
{
    Core &c = _cores[core];
    if (c.gen != gen)
        return; // the watchdog beat the trap to it and recovered
    PacketPtr pkt = c.pkt;
    releaseCore(core);
    // Host-path fallback recovers the crash: the one recovery note
    // for this injected fault.
    _faultFallbacks.inc();
    if (_faults)
        _faults->noteRecovered();
    ND_ASSERT(_hostRx);
    _hostRx(pkt);
    tryDispatch();
}

void
HandlerStage::releaseCore(std::size_t core)
{
    Core &c = _cores[core];
    ND_ASSERT(c.busy && _busyCores > 0);
    _busyTicks += curTick() - c.startTick;
    c.busy = false;
    c.hung = false;
    c.crashed = false;
    c.pkt.reset();
    ++c.gen;
    --_busyCores;
}

void
HandlerStage::armWatchdog()
{
    if (_watchdogArmed || _stallTimeout == 0 || _watchdogPeriod == 0)
        return;
    _watchdogArmed = true;
    scheduleRel(_watchdogPeriod, [this] { watchdogTick(); });
}

void
HandlerStage::watchdogTick()
{
    // Mirrors the e1000 TX-hang watchdog: detect a stalled
    // core, drain the run queue to the host (the stage is suspect),
    // reset the core, rescue its frame onto the host path, book the
    // recovery against the injected fault.
    Tick now = curTick();
    for (std::size_t i = 0; i < _cores.size(); ++i) {
        Core &c = _cores[i];
        if (!c.busy || now - c.startTick < _stallTimeout)
            continue;
        _watchdogResets.inc();
        while (!_queue.empty()) {
            PacketPtr p = std::move(_queue.front());
            _queue.pop_front();
            _drainedToHost.inc();
            ND_ASSERT(_hostRx);
            _hostRx(p);
        }
        PacketPtr rescued = c.pkt;
        bool faulted = c.hung || c.crashed;
        releaseCore(i);
        _faultFallbacks.inc();
        ND_ASSERT(_hostRx);
        _hostRx(rescued);
        // Exactly one recovery per injected fault: the watchdog
        // books hangs (and crashes it beat to the trap); a falsely
        // reset healthy invocation injected nothing, so its rescue
        // books nothing — the generation bump silences its stale
        // completion instead.
        if (faulted && _faults)
            _faults->noteRecovered();
    }
    if (_busyCores > 0 || !_queue.empty())
        scheduleRel(_watchdogPeriod, [this] { watchdogTick(); });
    else
        _watchdogArmed = false;
}

double
HandlerStage::coreUtilization() const
{
    Tick now = curTick();
    if (now == 0)
        return 0.0;
    return double(_busyTicks) / (double(now) * double(_cfg.cores));
}

} // namespace netdimm
