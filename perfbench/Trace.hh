/**
 * @file
 * Span recorder for the traced run. Spans are taken only around the
 * calls the benchmark makes into a simulator layer (setup calls,
 * EventQueue::run, the wire hook, Node TX/RX, serving cells, PDES
 * shards, transport sends, fluid flow registration). Each span has a
 * name, a layer, start/end on the host steady clock, the span that
 * caused it and, where one exists, the packet or request id it
 * belongs to. Spans stay in memory; the last repetition's spans are
 * written out once when the benchmark ends.
 *
 * A null Tracer* turns every ScopedSpan into a no-op, which is how the
 * untraced runs measure end-to-end time.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** The simulator's src/ modules, in dependency order. */
enum class Layer : std::uint8_t
{
    Sim,
    Mem,
    Cache,
    Nvdimm,
    Pcie,
    Nic,
    Netdimm,
    Kernel,
    Net,
    Transport,
    Handler,
    Flow,
    Harness,
    Workload,
    Count,
};

constexpr std::size_t numLayers = std::size_t(Layer::Count);

const char *layerName(Layer l);

inline std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = "";
    Layer layer = Layer::Harness;
    std::int32_t parent = -1;
    std::uint32_t thread = 0;
    std::uint64_t id = 0;
    std::int64_t start = 0;
    std::int64_t end = -1; ///< -1 while open
};

/** Host seconds of self time per layer. */
using LayerSeconds = std::array<double, numLayers>;

class Tracer
{
  public:
    /** Open a span on the calling thread; its parent is the thread's
     *  innermost open span, or @p parent when the thread has none. */
    std::int32_t begin(const char *name, Layer layer, std::uint64_t id,
                       std::int32_t parent = -1);
    void end(std::int32_t span);
    void setId(std::int32_t span, std::uint64_t id);
    /** Record a finished span whose ends were taken in different
     *  callbacks (a PDES shard's run between build and atEnd). */
    void add(const char *name, Layer layer, std::uint64_t id,
             std::int32_t parent, std::int64_t start, std::int64_t end);

    /** Innermost open span of the calling thread (-1 if none). */
    static std::int32_t current();

    /**
     * Add every recorded span's self time to @p self, then move the
     * spans aside (kept for write()) so the next repetition starts
     * empty.
     */
    void fold(LayerSeconds &self);

    /** Spans recorded since the tracer was created. */
    std::uint64_t recorded() const { return _recorded; }

    /** Write the last folded repetition's spans as CSV. */
    bool write(const std::string &path) const;

  private:
    std::mutex _mutex; ///< guards every member below
    std::vector<Span> _spans;
    std::vector<Span> _last;
    std::uint64_t _recorded = 0;
};

/** RAII span; a no-op when the tracer is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name, Layer layer,
               std::uint64_t id = 0, std::int32_t parent = -1)
        : _t(t), _idx(t ? t->begin(name, layer, id, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (_t)
            _t->end(_idx);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void
    setId(std::uint64_t id)
    {
        if (_t)
            _t->setId(_idx, id);
    }
    std::int32_t index() const { return _idx; }

  private:
    Tracer *_t;
    std::int32_t _idx;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
