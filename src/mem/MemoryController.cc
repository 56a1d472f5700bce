#include "mem/MemoryController.hh"

#include <algorithm>

namespace netdimm
{

MemoryController::MemoryController(EventQueue &eq, std::string name,
                                   const DramTiming &timing,
                                   const DramGeometry &geo,
                                   const MemCtrlConfig &cfg)
    : SimObject(eq, std::move(name)), _timing(timing), _geo(geo),
      _cfg(cfg), _decoder(geo),
      _banks(std::size_t(geo.ranksPerChannel) * geo.banksPerDevice),
      _stats(numMemSources)
{
    _drainHi = std::size_t(_cfg.writeDrainFraction *
                           double(_cfg.writeQueueDepth));
    _handlerBusShare =
        std::min(1.0, std::max(0.01, _cfg.handlerBusShare));
    _probeId = eq.registerHealthProbe(this->name(), [this] {
        return std::uint64_t(_readQ.size() + _writeQ.size());
    });
}

MemoryController::~MemoryController()
{
    eventq().unregisterHealthProbe(_probeId);
}

void
MemoryController::access(const MemRequestPtr &req)
{
    ND_ASSERT(req && req->size > 0);
    // The beat count lives in the request, so it can be queued in
    // only one controller at a time.
    ND_ASSERT(req->beatsLeft == 0);
    req->issued = curTick();

    // Split into cacheline beats, each hitting its own decoded bank.
    Addr first = req->addr & ~Addr(cachelineBytes - 1);
    Addr last = (req->addr + req->size - 1) & ~Addr(cachelineBytes - 1);
    std::uint32_t nbeats =
        std::uint32_t((last - first) / cachelineBytes) + 1;
    req->beatsLeft = nbeats;
    req->lastDone = 0;

    Tick ready = curTick() + _cfg.frontendLatency;
    bool handler = req->source == MemSource::Handler;
    BeatQueue &q = req->write ? _writeQ : _readQ;
    for (std::uint32_t i = 0; i < nbeats; ++i) {
        Beat b;
        b.req = req;
        b.lineAddr = first + Addr(i) * cachelineBytes;
        DramAddress da = _decoder.decode(b.lineAddr);
        b.row = da.rowId(_geo);
        b.bankIdx = da.rank * _geo.banksPerDevice + da.bank;
        b.write = req->write;
        b.handler = handler;
        b.ready = ready;
        q.push_back(std::move(b));
    }
    if (handler)
        _handlerQueued += nbeats;
    scheduleService(ready);
}

void
MemoryController::scheduleService(Tick when)
{
    // A pending service event normally covers any new arrival: its
    // tick is the minimum ready time of the queued beats, and new
    // beats become ready frontendLatency after *their* enqueue. The
    // exception is a StaticCap or lazy-issue wakeup parked at the
    // bus-admission tick: a host request arriving underneath it must
    // not wait for it, so pull the service forward. The later event
    // is cancelled, keeping at most one service event pending; left
    // in place it would run service() again and start a second
    // self-rescheduling chain.
    Tick at = std::max(when, curTick());
    if (_serviceEvent != EventQueue::invalidHandle) {
        if (at >= _serviceAt)
            return;
        eventq().deschedule(_serviceEvent);
    }
    _serviceAt = at;
    _serviceEvent = eventq().schedule(at, [this] {
        _serviceEvent = EventQueue::invalidHandle;
        service();
    }, EventPriority::Maintenance);
}

bool
MemoryController::pickBeat(Beat &out)
{
    // Choose queue: reads have priority until the write queue crosses
    // its drain watermark; draining continues until half empty.
    if (_writeQ.size() >= _drainHi)
        _draining = true;
    if (_writeQ.size() <= _drainHi / 2)
        _draining = false;

    BeatQueue *order[2];
    if (_draining || _readQ.empty()) {
        order[0] = &_writeQ;
        order[1] = &_readQ;
    } else {
        order[0] = &_readQ;
        order[1] = &_writeQ;
    }

    for (BeatQueue *q : order) {
        // Ready beats are a prefix of the queue (see
        // pickClassAware()): if the front beat is not ready, no beat
        // is, and the scan would find nothing.
        if (q->empty() || (*q)[0].ready > curTick())
            continue;
        std::size_t pick = pickClassAware(*q);
        if (pick == q->size())
            continue;
        out = std::move((*q)[pick]);
        if (out.handler) {
            ND_ASSERT(_handlerQueued > 0);
            --_handlerQueued;
        }
        q->erase(pick);
        return true;
    }
    return false;
}

std::size_t
MemoryController::pickClassAware(const BeatQueue &q) const
{
    // Per-class FR-FCFS candidates: within each requestor class,
    // prefer a row hit among the first scanWindow ready beats of that
    // class, else the class's oldest ready beat. The policy then
    // chooses between the two class candidates; with no handler beat
    // queued every policy returns the host candidate.
    //
    // Ready times are enqueue tick + frontendLatency and erase()
    // preserves order, so the ready beats form a prefix of the queue.
    // The scan therefore stops at the first beat that is not ready,
    // or once it has seen scanWindow host beats and
    // min(scanWindow, _handlerQueued) handler beats. Host-only picks
    // stay O(scanWindow).
    constexpr std::size_t scanWindow = 8;
    const std::size_t npos = q.size();
    const std::size_t handlerWindow =
        std::min(scanWindow, _handlerQueued);
    struct Cand
    {
        std::size_t firstReady;
        std::size_t hit;
        std::size_t seen = 0;
    };
    Cand cand[2] = {{npos, npos}, {npos, npos}};
    for (std::size_t i = 0; i < q.size(); ++i) {
        const Beat &b = q[i];
        if (b.ready > curTick())
            break;
        Cand &c = cand[b.handler ? 1 : 0];
        if (c.seen >= scanWindow)
            continue;
        ++c.seen;
        if (c.firstReady == npos)
            c.firstReady = i;
        const BankState &bs = _banks[b.bankIdx];
        if (c.hit == npos && bs.rowOpen && bs.openRow == b.row)
            c.hit = i;
        if (cand[0].seen >= scanWindow && cand[1].seen >= handlerWindow)
            break;
    }
    std::size_t host =
        cand[0].hit != npos ? cand[0].hit : cand[0].firstReady;
    std::size_t hand =
        cand[1].hit != npos ? cand[1].hit : cand[1].firstReady;

    switch (_cfg.handlerArb) {
      case MemArbPolicy::HostPriority:
        return host != npos ? host : hand;
      case MemArbPolicy::Fair:
        if (host != npos && hand != npos) {
            std::size_t pick = _fairNext ? hand : host;
            _fairNext = !_fairNext;
            return pick;
        }
        return host != npos ? host : hand;
      case MemArbPolicy::StaticCap: {
        // Over budget the handler class is masked entirely; under it
        // the classes compete on plain FR-FCFS merit: best row hit,
        // else oldest ready beat.
        if (!capAllowsHandler())
            return host;
        if (cand[0].hit != npos || cand[1].hit != npos)
            return std::min(cand[0].hit, cand[1].hit);
        return std::min(host, hand);
      }
    }
    return npos;
}

Tick
MemoryController::capAllowedTick() const
{
    // Handler beats are admitted while handlerBusTicks <= share *
    // now, i.e. from tick ceil(handlerBusTicks / share) onward.
    double t = double(_handlerBusTicks) / _handlerBusShare;
    Tick at = Tick(t);
    return double(at) < t ? at + 1 : at;
}

void
MemoryController::issueBeat(Beat &beat)
{
    BankState &bs = _banks[beat.bankIdx];
    std::uint64_t row = beat.row;

    // Command issue may run ahead of "now": the controller pipelines
    // the CAS latency of beat N under the data burst of beat N-1, so
    // back-to-back row hits stream at max(tCCD, tBURST) -- the
    // channel's nominal bandwidth.
    Tick cl = _timing.clocks(_timing.tCL);
    Tick burst = _timing.clocks(_timing.tBURST);

    Tick cas_at = std::max(beat.ready, bs.nextCasAt);
    if (bs.rowOpen && bs.openRow == row) {
        _rowHits.inc();
    } else if (bs.rowOpen) {
        // Precharge (plus write recovery if the last op was a write,
        // folded into tRP here) then activate.
        cas_at += _timing.clocks(_timing.tRP + _timing.tRCD);
        _rowMisses.inc();
    } else {
        cas_at += _timing.clocks(_timing.tRCD);
        _rowMisses.inc();
    }

    // The data burst is the serialized resource on the channel.
    Tick bus_start = std::max(cas_at + cl, _busReady);
    // A handler beat may have been held past its ready time by the
    // arbitration policy (StaticCap masking) with the bus idle; it
    // cannot burst in the past. Host beats are never masked, so this
    // clamp leaves their timing untouched.
    if (beat.handler)
        bus_start = std::max(bus_start, curTick());
    Tick done = bus_start + burst;
    _busReady = done;
    _busBusyTicks += burst;

    // ECC error model: each beat rolls independently. An
    // uncorrectable error poisons the whole request (the consumer
    // must discard the data); a correctable one is fixed in line at
    // the cost of the scrub latency on this beat's completion.
    if (_faultDomain) {
        if (_faultDomain->inject(_faultCfg->eccUncorrectableProb)) {
            beat.req->poisoned = true;
            _eccUncorrectable.inc();
        } else if (_faultDomain->inject(_faultCfg->eccCorrectableProb)) {
            done += _faultCfg->eccScrubLatency;
            _eccCorrectable.inc();
            // Corrected transparently to the consumer.
            _faultDomain->noteRecovered();
        }
    }

    bs.rowOpen = true;
    bs.openRow = row;
    bs.nextCasAt = cas_at + _timing.clocks(_timing.tCCD);

    _beats.inc();
    if (beat.handler) {
        _handlerBeats.inc();
        _handlerBusTicks += burst;
    }
    if (_trace)
        _trace(bus_start, beat.lineAddr, beat.write, beat.req->source);
    finishBeat(beat, done);
}

void
MemoryController::finishBeat(Beat &beat, Tick done)
{
    MemRequest &req = *beat.req;
    req.lastDone = std::max(req.lastDone, done);
    ND_ASSERT(req.beatsLeft > 0);
    if (--req.beatsLeft > 0)
        return;

    Tick respond = req.lastDone + _cfg.backendLatency;
    Tick lat = respond - req.issued;

    auto &st = _stats[std::size_t(req.source)];
    if (req.write) {
        st.writeLatencyNs.sample(ticksToNs(lat));
        st.bytesWritten.inc(req.size);
    } else {
        st.readLatencyNs.sample(ticksToNs(lat));
        st.bytesRead.inc(req.size);
    }

    if (req.onDone) {
        eventq().schedule(respond, [req = std::move(beat.req), respond] {
            req->onDone(respond);
        });
    }
}

void
MemoryController::service()
{
    // Host-only traffic drains eagerly: every ready beat issues now
    // and the bus/bank reservations inside issueBeat() space the
    // issued ones correctly even when their completion lies ahead of
    // "now" (deterministic timing calculation, gem5-style).
    //
    // With handler beats queued the controller issues lazily instead:
    // a beat is admitted only while the channel can start its burst
    // within one burst time, so every bus slot is arbitrated by the
    // configured policy across whatever is ready *then*. Eager issue
    // would reserve future slots FIFO at ready time and reduce every
    // policy to arrival order.
    const Tick burst = _timing.clocks(_timing.tBURST);
    Beat beat;
    while ((_handlerQueued == 0 || _busReady <= curTick() + burst) &&
           pickBeat(beat))
        issueBeat(beat);

    if (_readQ.empty() && _writeQ.empty())
        return;

    // Whatever remains is not ready yet (or waits for a bus slot).
    // Ready times are curTick + frontendLatency at enqueue, hence
    // nondecreasing in insertion order, and pickBeat() preserves that
    // order -- so each queue's front beat holds its minimum and no
    // scan is needed. The one exception is a StaticCap-masked handler
    // beat at the front: its wakeup is the budget-admission tick, and
    // a host beat behind it may become due earlier.
    Tick next = maxTick;
    if (!_readQ.empty())
        next = std::min(next, queueNext(_readQ));
    if (!_writeQ.empty())
        next = std::min(next, queueNext(_writeQ));
    if (_handlerQueued > 0 && _busReady > curTick() + burst) {
        // Lazy mode stopped on the bus: also wait for the admission
        // point (one burst before the bus frees, so bursts chain).
        next = std::max(next, _busReady - burst);
    }
    scheduleService(std::max(next, curTick() + 1));
}

Tick
MemoryController::queueNext(const BeatQueue &q) const
{
    const Beat &front = q[0];
    bool capBlocked = front.handler &&
                      _cfg.handlerArb == MemArbPolicy::StaticCap &&
                      !capAllowsHandler();
    if (!capBlocked)
        return front.ready;
    Tick next = std::max(front.ready, capAllowedTick());
    for (std::size_t i = 1; i < q.size(); ++i) {
        if (!q[i].handler) {
            next = std::min(next, q[i].ready);
            break;
        }
    }
    return next;
}

Tick
MemoryController::reserveBus(Tick earliest, Tick duration)
{
    Tick start = std::max({earliest, curTick(), _busReady});
    _busReady = start + duration;
    _busBusyTicks += duration;
    return start;
}

void
MemoryController::occupyBank(std::uint32_t rank, std::uint32_t bankIdx,
                             Tick until)
{
    std::size_t idx = std::size_t(rank) * _geo.banksPerDevice + bankIdx;
    ND_ASSERT(idx < _banks.size());
    _banks[idx].nextCasAt = std::max(_banks[idx].nextCasAt, until);
    // An in-DRAM copy leaves the bank's row buffer holding the
    // destination row; conservatively drop the open row.
    _banks[idx].rowOpen = false;
}

Tick
MemoryController::idleReadLatency() const
{
    return _cfg.frontendLatency +
           _timing.clocks(_timing.tRCD + _timing.tCL + _timing.tBURST) +
           _cfg.backendLatency;
}

double
MemoryController::meanReadLatencyNs() const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &s : _stats) {
        sum += s.readLatencyNs.sum();
        n += s.readLatencyNs.count();
    }
    return n ? sum / double(n) : 0.0;
}

double
MemoryController::busUtilization() const
{
    Tick now = curTick();
    return now ? double(_busBusyTicks) / double(now) : 0.0;
}

} // namespace netdimm
