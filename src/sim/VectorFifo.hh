/**
 * @file
 * FIFO on a vector plus a head cursor, for the per-frame and per-beat
 * queues of the switch and the memory controller.
 *
 * Steady-state allocation is amortized zero: popping advances the
 * head, and the dead prefix is reclaimed when the queue drains or
 * outgrows half the buffer, with the capacity kept. A std::deque
 * instead frees and reallocates chunks whenever the length oscillates
 * around a chunk boundary, and allocates a chunk on construction,
 * which a switch with one queue per egress link (most of which never
 * hold a frame) pays per link. This FIFO allocates nothing before its
 * first push.
 */

#ifndef NETDIMM_SIM_VECTORFIFO_HH
#define NETDIMM_SIM_VECTORFIFO_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace netdimm
{

template <typename T>
class VectorFifo
{
  public:
    std::size_t size() const { return _buf.size() - _head; }
    bool empty() const { return _head == _buf.size(); }
    T &operator[](std::size_t i) { return _buf[_head + i]; }
    const T &operator[](std::size_t i) const { return _buf[_head + i]; }
    T *begin() { return _buf.data() + _head; }
    T *end() { return _buf.data() + _buf.size(); }
    const T *begin() const { return _buf.data() + _head; }
    const T *end() const { return _buf.data() + _buf.size(); }

    void push_back(T v) { _buf.push_back(std::move(v)); }

    /** Remove and return the front element. */
    T
    pop_front()
    {
        T v = std::move(_buf[_head]);
        erase(0);
        return v;
    }

    /** Remove element @p i (front-relative), preserving order. The
     *  elements ahead of it shift back by one, so erasing near the
     *  front costs only that window. */
    void
    erase(std::size_t i)
    {
        for (std::size_t pos = _head + i; pos > _head; --pos)
            _buf[pos] = std::move(_buf[pos - 1]);
        ++_head;
        if (_head == _buf.size()) {
            _buf.clear(); // capacity retained
            _head = 0;
        } else if (_head > 64 && _head > _buf.size() / 2) {
            _buf.erase(_buf.begin(),
                       _buf.begin() + std::ptrdiff_t(_head));
            _head = 0;
        }
    }

    void
    clear()
    {
        _buf.clear();
        _head = 0;
    }

  private:
    std::vector<T> _buf;
    std::size_t _head = 0;
};

} // namespace netdimm

#endif // NETDIMM_SIM_VECTORFIFO_HH
