/**
 * @file
 * Single-producer / single-consumer channel between simulation
 * shards (sim/ParallelSim.hh).
 *
 * A chunked unbounded queue: the producer fills fixed-size chunks and
 * links new ones as needed; the consumer drains a chunk and retires
 * it onto a recycle stack the producer reuses, so steady-state
 * traffic allocates nothing. Each side touches its own end only —
 * push() is producer-thread-only, front()/pop() are
 * consumer-thread-only — and the two ends synchronize through one
 * release/acquire pair per entry (the chunk's tail index) plus one
 * per chunk hand-off (the next pointer), never a lock.
 *
 * Entries cross threads BY VALUE: the producer copies in, the
 * consumer destroys in place after reading.
 *
 * Counters are single-writer relaxed atomics: pushes are owned by
 * the producer, pops by the consumer, and any thread may read an
 * exact snapshot.
 */

#ifndef NETDIMM_SIM_SHARDCHANNEL_HH
#define NETDIMM_SIM_SHARDCHANNEL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace netdimm
{

template <typename T, std::size_t ChunkCap = 128>
class ShardChannel
{
  public:
    ShardChannel()
    {
        Chunk *c = new Chunk();
        _prod = c;
        _cons = c;
    }

    ShardChannel(const ShardChannel &) = delete;
    ShardChannel &operator=(const ShardChannel &) = delete;

    ~ShardChannel()
    {
        // Tear-down happens after both sides quiesced (the driver
        // joins every shard first), so plain walks are safe.
        while (front() != nullptr)
            pop();
        Chunk *c = _cons;
        while (c != nullptr) {
            Chunk *next = c->next.load(std::memory_order_relaxed);
            delete c;
            c = next;
        }
        c = _recycle.load(std::memory_order_relaxed);
        while (c != nullptr) {
            Chunk *next = c->nextFree;
            delete c;
            c = next;
        }
    }

    /** Producer only: append @p v. */
    void
    push(T v)
    {
        Chunk *c = _prod;
        std::size_t t = c->tail.load(std::memory_order_relaxed);
        if (t == ChunkCap) {
            Chunk *n = takeFreeChunk();
            // Publish the fresh chunk only after it is fully reset;
            // the consumer acquires through next.
            c->next.store(n, std::memory_order_release);
            _prod = n;
            c = n;
            t = 0;
        }
        ::new (c->slot(t)) T(std::move(v));
        c->tail.store(t + 1, std::memory_order_release);
        bump(_pushes, 1);
    }

    /**
     * Consumer only: the oldest entry still in the channel, or
     * nullptr when (currently) empty. The pointer stays valid until
     * pop().
     */
    const T *
    front()
    {
        Chunk *c = _cons;
        if (c->head == ChunkCap) {
            Chunk *n = c->next.load(std::memory_order_acquire);
            if (n == nullptr)
                return nullptr; // producer still owns the tail chunk
            retire(c);
            _cons = n;
            c = n;
        }
        if (c->head >= c->tail.load(std::memory_order_acquire))
            return nullptr;
        return std::launder(
            reinterpret_cast<const T *>(c->slot(c->head)));
    }

    /** Consumer only: drop the entry front() returned. */
    void
    pop()
    {
        Chunk *c = _cons;
        std::launder(reinterpret_cast<T *>(c->slot(c->head)))->~T();
        ++c->head;
        bump(_pops, 1);
    }

    /** Entries pushed so far (exact, any thread). */
    std::uint64_t
    pushes() const
    {
        return _pushes.load(std::memory_order_relaxed);
    }

    /** Entries popped so far (exact, any thread). */
    std::uint64_t
    pops() const
    {
        return _pops.load(std::memory_order_relaxed);
    }

    /** Chunks obtained from the heap (constant in steady state). */
    std::uint64_t
    chunkAllocs() const
    {
        return _chunkAllocs.load(std::memory_order_relaxed);
    }

  private:
    struct Chunk
    {
        /** Entries the producer has published. */
        std::atomic<std::size_t> tail{0};
        /** Entries the consumer has retired (consumer-private). */
        std::size_t head = 0;
        std::atomic<Chunk *> next{nullptr};
        /** Recycle-stack link (never concurrent with queue use). */
        Chunk *nextFree = nullptr;
        alignas(T) unsigned char store[ChunkCap * sizeof(T)];

        void *slot(std::size_t i) { return store + i * sizeof(T); }
        const void *
        slot(std::size_t i) const
        {
            return store + i * sizeof(T);
        }
    };

    /** Producer: reuse a retired chunk or allocate a fresh one. */
    Chunk *
    takeFreeChunk()
    {
        Chunk *c = _recycle.load(std::memory_order_acquire);
        while (c != nullptr) {
            // Single popper (the producer), so c cannot be reclaimed
            // under us; a failed CAS just means the consumer pushed
            // another retiree.
            if (_recycle.compare_exchange_weak(
                    c, c->nextFree, std::memory_order_acquire,
                    std::memory_order_acquire))
                break;
        }
        if (c == nullptr) {
            c = new Chunk();
            bump(_chunkAllocs, 1);
            return c;
        }
        c->tail.store(0, std::memory_order_relaxed);
        c->head = 0;
        c->next.store(nullptr, std::memory_order_relaxed);
        c->nextFree = nullptr;
        return c;
    }

    /** Consumer: park a fully drained chunk for producer reuse. */
    void
    retire(Chunk *c)
    {
        Chunk *top = _recycle.load(std::memory_order_relaxed);
        do {
            c->nextFree = top;
        } while (!_recycle.compare_exchange_weak(
            top, c, std::memory_order_release,
            std::memory_order_relaxed));
    }

    static void
    bump(std::atomic<std::uint64_t> &c, std::uint64_t delta) noexcept
    {
        c.store(c.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
    }

    Chunk *_prod;
    Chunk *_cons;
    std::atomic<Chunk *> _recycle{nullptr};
    std::atomic<std::uint64_t> _pushes{0};
    std::atomic<std::uint64_t> _pops{0};
    std::atomic<std::uint64_t> _chunkAllocs{0};
};

} // namespace netdimm

#endif // NETDIMM_SIM_SHARDCHANNEL_HH
