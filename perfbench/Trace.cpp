#include "Trace.hh"

#include <cstdio>
#include <functional>
#include <thread>

#include "BenchMath.hh"

namespace perfbench
{

namespace
{

/** Open spans of this thread, innermost last. */
thread_local std::vector<std::int32_t> tlStack;

std::uint32_t
threadTag()
{
    return std::uint32_t(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0xffffffffu);
}

} // namespace

const char *
layerName(Layer l)
{
    static const char *const names[numLayers] = {
        "sim",     "mem",       "cache",   "nvdimm", "pcie",
        "nic",     "netdimm",   "kernel",  "net",    "transport",
        "handler", "flow",      "harness", "workload"};
    return names[std::size_t(l)];
}

std::int32_t
Tracer::current()
{
    return tlStack.empty() ? -1 : tlStack.back();
}

std::int32_t
Tracer::begin(const char *name, Layer layer, std::uint64_t id,
              std::int32_t parent)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = tlStack.empty() ? parent : tlStack.back();
    s.thread = threadTag();
    s.id = id;
    s.start = hostNowNs();
    std::int32_t idx;
    {
        std::lock_guard<std::mutex> g(_mutex);
        idx = std::int32_t(_spans.size());
        _spans.push_back(s);
        ++_recorded;
    }
    tlStack.push_back(idx);
    return idx;
}

void
Tracer::end(std::int32_t span)
{
    std::int64_t now = hostNowNs();
    if (!tlStack.empty() && tlStack.back() == span)
        tlStack.pop_back();
    std::lock_guard<std::mutex> g(_mutex);
    _spans[std::size_t(span)].end = now;
}

void
Tracer::setId(std::int32_t span, std::uint64_t id)
{
    std::lock_guard<std::mutex> g(_mutex);
    _spans[std::size_t(span)].id = id;
}

void
Tracer::add(const char *name, Layer layer, std::uint64_t id,
            std::int32_t parent, std::int64_t start, std::int64_t end)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = parent;
    s.thread = threadTag();
    s.id = id;
    s.start = start;
    s.end = end;
    std::lock_guard<std::mutex> g(_mutex);
    _spans.push_back(s);
    ++_recorded;
}

void
Tracer::fold(LayerSeconds &self)
{
    std::lock_guard<std::mutex> g(_mutex);
    std::vector<std::vector<Interval>> children(_spans.size());
    for (const Span &s : _spans)
        if (s.parent >= 0 && s.end >= s.start)
            children[std::size_t(s.parent)].push_back({s.start, s.end});
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        if (s.end < s.start)
            continue; // still open: not a finished measurement
        std::int64_t ns =
            selfTime({s.start, s.end}, std::move(children[i]));
        self[std::size_t(s.layer)] += double(ns) * 1e-9;
    }
    _last.swap(_spans);
    _spans.clear();
}

bool
Tracer::write(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "span,name,layer,parent,thread,id,start_ns,end_ns\n");
    for (std::size_t i = 0; i < _last.size(); ++i) {
        const Span &s = _last[i];
        std::fprintf(f, "%zu,%s,%s,%d,%u,%llu,%lld,%lld\n", i, s.name,
                     layerName(s.layer), s.parent, s.thread,
                     (unsigned long long)s.id, (long long)s.start,
                     (long long)s.end);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
