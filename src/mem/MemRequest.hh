/**
 * @file
 * Memory request descriptor shared by every memory-path component.
 */

#ifndef NETDIMM_MEM_MEMREQUEST_HH
#define NETDIMM_MEM_MEMREQUEST_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/InlineFunction.hh"
#include "sim/Pool.hh"
#include "sim/Ticks.hh"

namespace netdimm
{

/** Physical address type. */
using Addr = std::uint64_t;

/** Who generated a memory request; used for interference accounting. */
enum class MemSource : std::uint8_t
{
    HostCpu,   ///< demand access from a core (LLC miss)
    HostDma,   ///< DMA from a PCIe or integrated NIC
    NetDimmNic, ///< nNIC / nController access on the local channel
    Clone,     ///< RowClone engine activity
    Prefetch,  ///< nPrefetcher fills
    Other,
    /**
     * Near-memory handler kernels (src/handler). The only source in
     * the handler arbitration class; every other source is
     * host-class (MemArbPolicy).
     */
    Handler,
};

/** Number of MemSource values; sizes per-source stats arrays. */
constexpr std::size_t numMemSources =
    std::size_t(MemSource::Handler) + 1;

/**
 * One memory transaction. Components pass shared_ptrs so a request
 * can sit in several bookkeeping structures (queue + outstanding map)
 * while completion delivers exactly one callback.
 */
struct MemRequest
{
    /**
     * Completion callback; argument is the finish tick. Inline
     * storage (no heap) sized for the deepest capture on the rx
     * path; move-only, like the request that owns it.
     */
    using Completion = InlineFunction<void(Tick), 80>;

    Addr addr = 0;
    std::uint32_t size = 64;
    bool write = false;
    MemSource source = MemSource::Other;
    /** Tick the requester handed the request to the controller. */
    Tick issued = 0;
    /**
     * Set by the controller when any beat of this request hit an
     * uncorrectable ECC error: the data is not trustworthy and
     * consumers must drop or regenerate it (poisoned-line
     * propagation, not silent corruption).
     */
    bool poisoned = false;
    /**
     * Controller-private: beats of this request not yet issued. Set
     * by MemoryController::access() and counted down per beat; zero
     * whenever the request is not queued in a controller. A request
     * sits in at most one controller at a time, which access()
     * asserts.
     */
    std::uint32_t beatsLeft = 0;
    /** Controller-private: latest done tick of the issued beats. */
    Tick lastDone = 0;
    Completion onDone;

    MemRequest() = default;

    /** @p cb is any callable (or nullptr); built in place in onDone. */
    template <typename F>
    MemRequest(Addr a, std::uint32_t s, bool w, MemSource src, F &&cb)
        : addr(a), size(s), write(w), source(src),
          onDone(std::forward<F>(cb))
    {}
};

using MemRequestPtr = std::shared_ptr<MemRequest>;

/**
 * Pool-aware factory: request + control block in one recycled
 * allocation, mirroring makePacket(). The completion @p cb is
 * forwarded to the request and constructed in place; a Completion
 * handed in is moved once.
 */
template <typename F = std::nullptr_t>
inline MemRequestPtr
makeMemRequest(Addr addr, std::uint32_t size, bool write, MemSource src,
               F &&cb = nullptr)
{
    return std::allocate_shared<MemRequest>(PoolAlloc<MemRequest>{},
                                            addr, size, write, src,
                                            std::forward<F>(cb));
}

/** State of one joinParts() join; shared by its part completions. */
struct PartJoin
{
    std::uint32_t left = 0;
    Tick lastDone = 0;
    MemRequest::Completion cb;
};

/**
 * Completion join for one access served as @p parts parts (stripe
 * parts, cache lines, clone chunks). Returns the part completion:
 * hand a copy to each part; when the last one completes, @p cb (if
 * set) runs once, inline, with the latest part done tick. One pooled
 * allocation per join and no event of its own.
 */
inline auto
joinParts(std::uint32_t parts, MemRequest::Completion &&cb)
{
    auto join = std::allocate_shared<PartJoin>(PoolAlloc<PartJoin>{});
    join->left = parts;
    join->cb = std::move(cb);
    return [join](Tick done) {
        join->lastDone = std::max(join->lastDone, done);
        if (--join->left == 0 && join->cb)
            join->cb(join->lastDone);
    };
}

} // namespace netdimm

#endif // NETDIMM_MEM_MEMREQUEST_HH
