#include "kernel/CopyEngine.hh"

#include <algorithm>

namespace netdimm
{

CopyEngine::CopyEngine(EventQueue &eq, std::string name,
                       const SystemConfig &cfg, Llc &llc)
    : SimObject(eq, std::move(name)), _cfg(cfg), _llc(llc)
{
}

/**
 * Windowed load/store loop: keep up to copyMlp line reads in flight;
 * each completed read issues the matching store (posted) and pulls
 * the next line into the window. The state is pooled and recursion
 * goes through a member function, so a copy costs one recycled
 * allocation total regardless of size.
 */
struct CopyEngine::CopyState
{
    Addr dst, src;
    std::uint32_t lines;
    std::uint32_t nextLine = 0;
    std::uint32_t doneLines = 0;
    Tick lastDone = 0;
    Tick perLineCpu = 0;
    Completion cb;
};

void
CopyEngine::issueLine(const std::shared_ptr<CopyState> &st)
{
    if (st->nextLine >= st->lines)
        return;
    std::uint32_t i = st->nextLine++;
    _llc.access(
        st->src + Addr(i) * cachelineBytes, cachelineBytes, false,
        MemSource::HostCpu, [this, st, i](Tick t) {
            // Store of the line: posted write through the LLC.
            _llc.access(st->dst + Addr(i) * cachelineBytes,
                        cachelineBytes, true, MemSource::HostCpu,
                        nullptr);

            Tick done = t + st->perLineCpu;
            st->lastDone = std::max(st->lastDone, done);
            if (++st->doneLines == st->lines) {
                Tick fin = st->lastDone;
                eventq().schedule(fin, [st, fin] {
                    if (st->cb)
                        st->cb(fin);
                });
            } else {
                issueLine(st); // refill the window
            }
        });
}

void
CopyEngine::copy(Addr dst, Addr src, std::uint32_t bytes, Completion cb)
{
    ND_ASSERT(bytes > 0);
    _copies.inc();
    _bytes.inc(bytes);

    std::uint32_t lines = (bytes + cachelineBytes - 1) / cachelineBytes;

    auto st = std::allocate_shared<CopyState>(PoolAlloc<CopyState>{});
    st->dst = dst;
    st->src = src;
    st->lines = lines;
    st->perLineCpu = _cfg.cpu.cycles(_cfg.sw.perLineCopyCycles);
    st->cb = std::move(cb);

    Tick setup = _cfg.sw.copySetup;
    std::uint32_t window = std::min(lines, _cfg.sw.copyMlp);
    scheduleRel(setup, [this, st, window] {
        for (std::uint32_t w = 0; w < window; ++w)
            issueLine(st);
    });
}

} // namespace netdimm
