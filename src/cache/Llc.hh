/**
 * @file
 * Last-level cache with Data Direct I/O (Sec. 2.1).
 *
 * Demand accesses from the cores use the full associativity; DMA
 * writes from a DDIO-enabled NIC allocate only into a restricted
 * subset of ways (~10% of capacity). When the DDIO ways of a set are
 * exhausted the oldest DDIO line is evicted -- if it was never read
 * by the CPU this is counted as DMA leakage [68], the effect that
 * motivates NetDIMM's header/payload split.
 *
 * The model tracks tags only (no data); timing comes from the hit
 * latency and the downstream memory system.
 */

#ifndef NETDIMM_CACHE_LLC_HH
#define NETDIMM_CACHE_LLC_HH

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "mem/MemoryController.hh"
#include "mem/MemorySystem.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

class Llc : public SimObject, public MemTarget
{
  public:
    /** Same inline callback type as MemRequest::Completion. */
    using Completion = MemRequest::Completion;

    Llc(EventQueue &eq, std::string name, const CacheConfig &cfg,
        const CpuConfig &cpu, MemTarget &downstream);

    /** Core-side demand access (read or write allocate). */
    void access(const MemRequestPtr &req) override;

    /**
     * The same demand access without a MemRequest: @p cb (any
     * callable taking the done tick, a Completion, or nullptr) runs
     * once every line of [addr, addr+size) has hit or been filled.
     * A single-line access keeps @p cb as it is, so a small callable
     * rides the hit event or the fill's completion with no extra
     * state; a multi-line one joins its lines behind one Completion.
     */
    template <typename F>
    void access(Addr addr, std::uint32_t size, bool write, MemSource src,
                F &&cb);

    /** DDIO allocate-write from a NIC DMA engine. */
    void dmaWrite(Addr addr, std::uint32_t size, MemSource src,
                  Completion cb);

    /** DMA read: served from the LLC when resident, else memory. */
    void dmaRead(Addr addr, std::uint32_t size, MemSource src,
                 Completion cb);

    /** Drop the lines covering the range without writeback. */
    void invalidate(Addr addr, std::uint32_t size);

    /** @return true if the line holding @p addr is resident. */
    bool probe(Addr addr) const;

    /** LLC hit latency in ticks. */
    Tick hitLatency() const { return _hitLatency; }

    // -- statistics ----------------------------------------------------
    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    std::uint64_t ddioInserts() const { return _ddioInserts.value(); }
    std::uint64_t ddioLeaks() const { return _ddioLeaks.value(); }
    std::uint64_t writebacks() const { return _writebacks.value(); }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool ddio = false;     ///< inserted by DMA, not yet CPU-read
        std::uint64_t lastUse = 0;
    };

    const CacheConfig _cfg;
    MemTarget &_downstream;
    Tick _hitLatency;
    std::uint32_t _sets;
    /** log2(lineBytes): tag = addr >> _lineShift. */
    std::uint32_t _lineShift;
    /** _sets - 1 (a power of two): set = tag & _setMask. */
    Addr _setMask;
    std::uint32_t _ddioWays;
    std::vector<Line> _lines; ///< _sets * assoc, row-major by set
    std::uint64_t _useClock = 0;

    stats::Scalar _hits, _misses, _ddioInserts, _ddioLeaks, _writebacks;

    /** Hit or fill the line at @p a; @p cb gets the done tick. */
    template <typename F>
    void accessLine(Addr a, bool write, MemSource src, F &&cb);
    /** Multi-line access [first, last]: joins the lines' dones. */
    void accessLines(Addr first, Addr last, bool write, MemSource src,
                     Completion cb);
    /** Miss on @p a: fetch it, install it, then run @p cb. */
    template <typename F>
    void fill(Addr a, bool write, MemSource src, F &&cb);
    /** Install the filled line @p a (evicting a victim). */
    void install(Addr a, bool write, MemSource src);

    /** Run @p cb at @p t unless it is nullptr or an empty
     *  Completion. */
    template <typename Fn>
    static void
    runCompletion(const Fn &cb, Tick t)
    {
        if constexpr (std::is_same_v<Fn, Completion>) {
            if (cb)
                cb(t);
        } else if constexpr (!std::is_same_v<Fn, std::nullptr_t>) {
            cb(t);
        }
    }

    std::uint32_t setIndex(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    /**
     * Choose a victim within the set; @p ddio_only restricts the
     * choice to the DDIO way subset. Issues a writeback if dirty.
     */
    Line &victim(std::uint32_t set, bool ddio_only, MemSource src);
    void touch(Line &line);

    /** Iterate cacheline-aligned subranges of [addr, addr+size). */
    template <typename Fn>
    void
    forEachLine(Addr addr, std::uint32_t size, Fn &&fn)
    {
        Addr first = addr & ~Addr(_cfg.lineBytes - 1);
        Addr last = (addr + size - 1) & ~Addr(_cfg.lineBytes - 1);
        for (Addr a = first; a <= last; a += _cfg.lineBytes)
            fn(a);
    }
};

template <typename F>
void
Llc::access(Addr addr, std::uint32_t size, bool write, MemSource src,
            F &&cb)
{
    Addr first = addr & ~Addr(_cfg.lineBytes - 1);
    Addr last = (addr + size - 1) & ~Addr(_cfg.lineBytes - 1);
    if (first == last)
        accessLine(first, write, src, std::forward<F>(cb));
    else
        accessLines(first, last, write, src,
                    Completion(std::forward<F>(cb)));
}

template <typename F>
void
Llc::accessLine(Addr a, bool write, MemSource src, F &&cb)
{
    using Fn = std::decay_t<F>;
    if (Line *l = findLine(a)) {
        _hits.inc();
        touch(*l);
        l->ddio = false;
        if (write)
            l->dirty = true;
        // One event per hit, with or without a callback.
        Tick done = curTick() + _hitLatency;
        eventq().schedule(done, [cb = Fn(std::forward<F>(cb)), done] {
            runCompletion(cb, done);
        });
        return;
    }
    _misses.inc();
    if constexpr (std::is_same_v<Fn, Completion>) {
        // A Completion is too large to nest inside the fill's own
        // inline completion; park it behind one pooled pointer.
        auto cbp = std::allocate_shared<Completion>(
            PoolAlloc<Completion>{}, std::forward<F>(cb));
        fill(a, write, src, [cbp](Tick t) { runCompletion(*cbp, t); });
    } else {
        fill(a, write, src, std::forward<F>(cb));
    }
}

template <typename F>
void
Llc::fill(Addr a, bool write, MemSource src, F &&cb)
{
    // Read the line from memory, then install it; the fill schedules
    // no event of its own.
    _downstream.access(makeMemRequest(
        a, _cfg.lineBytes, false, src,
        [this, a, write, src,
         cb = std::decay_t<F>(std::forward<F>(cb))](Tick t) {
            install(a, write, src);
            runCompletion(cb, t + _hitLatency);
        }));
}

} // namespace netdimm

#endif // NETDIMM_CACHE_LLC_HH
