#include "cache/Llc.hh"

#include <algorithm>
#include <bit>

namespace netdimm
{

Llc::Llc(EventQueue &eq, std::string name, const CacheConfig &cfg,
         const CpuConfig &cpu, MemTarget &downstream)
    : SimObject(eq, std::move(name)), _cfg(cfg), _downstream(downstream),
      _hitLatency(cpu.cycles(cfg.hitCycles))
{
    // Tags and set indices are shifts and masks, so the line size
    // and the set count must be powers of two.
    ND_ASSERT(cfg.assoc > 0 && std::has_single_bit(cfg.lineBytes));
    _sets = std::uint32_t(cfg.sizeBytes / cfg.lineBytes / cfg.assoc);
    ND_ASSERT(std::has_single_bit(_sets));
    _lineShift = std::uint32_t(std::countr_zero(cfg.lineBytes));
    _setMask = _sets - 1;
    _ddioWays = std::max(
        1u, std::uint32_t(double(cfg.assoc) * cfg.ddioFraction + 0.5));
    _lines.resize(std::size_t(_sets) * cfg.assoc);
}

std::uint32_t
Llc::setIndex(Addr addr) const
{
    return std::uint32_t((addr >> _lineShift) & _setMask);
}

Llc::Line *
Llc::findLine(Addr addr)
{
    Addr tag = addr >> _lineShift;
    std::uint32_t set = std::uint32_t(tag & _setMask);
    for (std::uint32_t w = 0; w < _cfg.assoc; ++w) {
        Line &l = _lines[std::size_t(set) * _cfg.assoc + w];
        if (l.valid && l.tag == tag)
            return &l;
    }
    return nullptr;
}

const Llc::Line *
Llc::findLine(Addr addr) const
{
    return const_cast<Llc *>(this)->findLine(addr);
}

void
Llc::touch(Line &line)
{
    line.lastUse = ++_useClock;
}

Llc::Line &
Llc::victim(std::uint32_t set, bool ddio_only, MemSource src)
{
    std::uint32_t ways = ddio_only ? _ddioWays : _cfg.assoc;
    Line *best = nullptr;
    for (std::uint32_t w = 0; w < ways; ++w) {
        Line &l = _lines[std::size_t(set) * _cfg.assoc + w];
        if (!l.valid)
            return l;
        if (!best || l.lastUse < best->lastUse)
            best = &l;
    }
    ND_ASSERT(best);
    if (best->dirty) {
        _writebacks.inc();
        auto wb = makeMemRequest(best->tag << _lineShift,
                                 _cfg.lineBytes, true, src);
        _downstream.access(wb);
    }
    if (best->ddio) {
        // A DMA-inserted line evicted before the CPU consumed it:
        // DMA leakage [68]; the CPU will later fetch it from DRAM.
        _ddioLeaks.inc();
    }
    best->valid = false;
    return *best;
}

void
Llc::access(const MemRequestPtr &req)
{
    access(req->addr, req->size, req->write, req->source,
           std::move(req->onDone));
}

void
Llc::accessLines(Addr first, Addr last, bool write, MemSource src,
                 Completion cb)
{
    // All hits complete after the hit latency, any miss extends
    // completion until its fill returns; the join reports the latest.
    auto lineDone = joinParts(
        std::uint32_t((last - first) >> _lineShift) + 1, std::move(cb));
    for (Addr a = first; a <= last; a += _cfg.lineBytes)
        accessLine(a, write, src, lineDone);
}

void
Llc::install(Addr a, bool write, MemSource src)
{
    Line &v = victim(setIndex(a), false, src);
    v.valid = true;
    v.tag = a >> _lineShift;
    v.dirty = write;
    v.ddio = false;
    touch(v);
}

void
Llc::dmaWrite(Addr addr, std::uint32_t size, MemSource src,
              Completion cb)
{
    if (!_cfg.ddioEnabled) {
        // Pre-DDIO platform: DMA writes go straight to DRAM.
        invalidate(addr, size);
        auto wr = makeMemRequest(addr, size, true, src,
                                 std::move(cb));
        _downstream.access(wr);
        return;
    }
    forEachLine(addr, size, [&](Addr a) {
        Line *l = findLine(a);
        if (!l) {
            std::uint32_t set = setIndex(a);
            Line &v = victim(set, /*ddio_only=*/true, src);
            v.valid = true;
            v.tag = a >> _lineShift;
            l = &v;
        }
        l->dirty = true;
        l->ddio = true;
        touch(*l);
        _ddioInserts.inc();
    });
    Tick done = curTick() + _hitLatency;
    if (cb)
        eventq().schedule(done, [cb = std::move(cb), done] { cb(done); });
}

void
Llc::dmaRead(Addr addr, std::uint32_t size, MemSource src,
             Completion cb)
{
    if (!_cfg.ddioEnabled) {
        auto rd = makeMemRequest(addr, size, false, src,
                                 std::move(cb));
        _downstream.access(rd);
        return;
    }
    // Count resident vs. missing lines; missing lines come from DRAM.
    std::uint32_t missing = 0;
    Addr miss_first = 0;
    forEachLine(addr, size, [&](Addr a) {
        Line *l = findLine(a);
        if (l) {
            _hits.inc();
            touch(*l);
        } else {
            _misses.inc();
            if (missing == 0)
                miss_first = a;
            ++missing;
        }
    });
    if (missing == 0) {
        Tick done = curTick() + _hitLatency;
        if (cb) {
            eventq().schedule(done,
                              [cb = std::move(cb), done] { cb(done); });
        }
        return;
    }
    auto req = makeMemRequest(miss_first, missing * _cfg.lineBytes,
                              false, src, std::move(cb));
    _downstream.access(req);
}

void
Llc::invalidate(Addr addr, std::uint32_t size)
{
    forEachLine(addr, size, [&](Addr a) {
        Line *l = findLine(a);
        if (l)
            l->valid = false;
    });
}

bool
Llc::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

} // namespace netdimm
