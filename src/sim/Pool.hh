/**
 * @file
 * Free-list object recycling for the per-packet / per-request
 * factories.
 *
 * makePacket()/makeMemRequest() run once per packet and once per
 * memory transaction; at datacenter replay scale that is millions of
 * make_shared heap allocations. PoolAlloc is a stateless allocator
 * whose blocks come from a per-type free list: std::allocate_shared
 * with it places the object and its control block in ONE pooled
 * allocation, and the block returns to the free list when the last
 * reference dies, so steady-state packet churn touches the heap only
 * while a pool is still growing to its high-water mark.
 *
 * Pools are thread-local: every thread gets its own per-type free
 * list, so the alloc/free fast path takes no lock and concurrent
 * sweep cells never contend. A block freed on another thread than
 * the one that allocated it simply joins the freeing thread's list:
 * every block comes from global operator new, so any thread may
 * reuse it or hand it back to the heap. A thread's cached blocks go
 * back to the heap when the thread exits.
 */

#ifndef NETDIMM_SIM_POOL_HH
#define NETDIMM_SIM_POOL_HH

#include <cstddef>
#include <new>

namespace netdimm
{

/** A single fixed-block-size free list (one per thread and type). */
class FreeListPool
{
  public:
    FreeListPool(std::size_t blockSize, std::size_t align)
        : _blockSize(blockSize < sizeof(Node) ? sizeof(Node)
                                              : blockSize),
          _align(align)
    {}

    /** Returns every cached block to the heap at thread exit. */
    ~FreeListPool()
    {
        while (_free != nullptr) {
            Node *n = _free;
            _free = n->next;
            if (overAligned())
                ::operator delete(n, std::align_val_t(_align));
            else
                ::operator delete(n);
        }
    }

    FreeListPool(const FreeListPool &) = delete;
    FreeListPool &operator=(const FreeListPool &) = delete;

    void *
    get()
    {
        if (_free != nullptr) {
            Node *n = _free;
            _free = n->next;
            return n;
        }
        if (overAligned())
            return ::operator new(_blockSize,
                                  std::align_val_t(_align));
        return ::operator new(_blockSize);
    }

    void
    put(void *p) noexcept
    {
        Node *n = static_cast<Node *>(p);
        n->next = _free;
        _free = n;
    }

  private:
    struct Node
    {
        Node *next;
    };

    bool overAligned() const { return _align > alignof(std::max_align_t); }

    Node *_free = nullptr;
    const std::size_t _blockSize;
    const std::size_t _align;
};

/** The calling thread's pool serving blocks of type @p T. */
template <typename T>
inline FreeListPool &
poolFor()
{
    static thread_local FreeListPool pool(sizeof(T), alignof(T));
    return pool;
}

/**
 * Stateless allocator over poolFor<T>(). With std::allocate_shared
 * this pools the combined object+control-block allocation; single
 * objects recycle through the calling thread's free list, array
 * allocations (never used by allocate_shared) fall through to the
 * heap.
 */
template <typename T>
struct PoolAlloc
{
    using value_type = T;

    PoolAlloc() noexcept = default;
    template <typename U>
    PoolAlloc(const PoolAlloc<U> &) noexcept
    {}

    T *
    allocate(std::size_t n)
    {
        if (n == 1)
            return static_cast<T *>(poolFor<T>().get());
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        if (n == 1)
            poolFor<T>().put(p);
        else
            ::operator delete(p);
    }

    template <typename U>
    bool
    operator==(const PoolAlloc<U> &) const noexcept
    {
        return true;
    }
};

} // namespace netdimm

#endif // NETDIMM_SIM_POOL_HH
