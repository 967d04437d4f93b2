#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

namespace perfbench
{

namespace
{

std::atomic<std::uint64_t> nextTracerId{1};

/** The calling thread's registration with the most recent tracer it
 *  recorded into. */
struct ThreadSlot
{
    std::uint64_t tracer = 0;
    int index = -1;
    void *buf = nullptr;
};
thread_local ThreadSlot tlSlot;

} // namespace

Tracer::Tracer()
    : origin_(std::chrono::steady_clock::now()), id_(nextTracerId++)
{}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

Tracer::ThreadBuf &
Tracer::local(int &index)
{
    // Only registration takes the lock: a thread's own buffer is
    // touched by that thread alone, and deque growth never moves it.
    if (tlSlot.tracer != id_) {
        std::lock_guard<std::mutex> lock(mutex_);
        threads_.emplace_back();
        tlSlot.tracer = id_;
        tlSlot.index = static_cast<int>(threads_.size()) - 1;
        tlSlot.buf = &threads_.back();
    }
    index = tlSlot.index;
    return *static_cast<ThreadBuf *>(tlSlot.buf);
}

SpanRef
Tracer::open(const char *name, SpanRef crossParent)
{
    int thread = 0;
    ThreadBuf &buf = local(thread);
    Span s;
    s.name = name;
    s.parent = buf.open.empty() ? crossParent
                                : SpanRef{thread, buf.open.back()};
    s.startNs = now();
    buf.spans.push_back(s);
    const int index = static_cast<int>(buf.spans.size()) - 1;
    buf.open.push_back(index);
    return {thread, index};
}

void
Tracer::close(SpanRef ref)
{
    const std::int64_t end = now();
    int thread = 0;
    ThreadBuf &buf = local(thread);
    if (thread != ref.thread || buf.open.empty() ||
        buf.open.back() != ref.index)
        throw std::logic_error("span closed out of order");
    buf.spans[static_cast<std::size_t>(ref.index)].endNs = end;
    buf.open.pop_back();
}

namespace
{

/** Per-span child time on the span's own thread. */
std::vector<std::int64_t>
childNs(const std::vector<Span> &spans, int thread)
{
    std::vector<std::int64_t> child(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent.thread == thread)
            child[static_cast<std::size_t>(s.parent.index)] +=
                s.endNs - s.startNs;
    }
    return child;
}

std::string
layerOf(const char *name)
{
    const std::string n(name);
    return n.substr(0, n.find('.'));
}

} // namespace

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, SpanTotals> out;
    for (std::size_t t = 0; t < threads_.size(); ++t) {
        const std::vector<Span> &spans = threads_[t].spans;
        const std::vector<std::int64_t> child =
            childNs(spans, static_cast<int>(t));
        for (std::size_t i = 0; i < spans.size(); ++i) {
            SpanTotals &tot = out[spans[i].name];
            const std::int64_t dur = spans[i].endNs - spans[i].startNs;
            tot.count += 1;
            tot.seconds += static_cast<double>(dur) * 1e-9;
            tot.selfSeconds +=
                static_cast<double>(dur - child[i]) * 1e-9;
        }
    }
    return out;
}

double
Tracer::mainThreadLayerSelfSeconds(
    const std::vector<std::string> &layers) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (threads_.empty())
        return 0.0;
    const std::vector<Span> &spans = threads_.front().spans;
    const std::vector<std::int64_t> child = childNs(spans, 0);
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (std::find(layers.begin(), layers.end(),
                      layerOf(spans[i].name)) != layers.end())
            total += spans[i].endNs - spans[i].startNs - child[i];
    }
    return static_cast<double>(total) * 1e-9;
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const ThreadBuf &b : threads_)
        n += b.spans.size();
    return n;
}

void
Tracer::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    os << "{\"spans\": [\n";
    bool first = true;
    for (std::size_t t = 0; t < threads_.size(); ++t) {
        const std::vector<Span> &spans = threads_[t].spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << (first ? "" : ",\n") << "{\"id\": [" << t << ", " << i
               << "], \"name\": \"" << s.name
               << "\", \"start_ns\": " << s.startNs
               << ", \"end_ns\": " << s.endNs << ", \"parent\": ";
            if (s.parent.valid())
                os << '[' << s.parent.thread << ", " << s.parent.index
                   << ']';
            else
                os << "null";
            os << ", \"thread\": " << t << '}';
            first = false;
        }
    }
    os << "\n]}\n";
    if (!os)
        throw std::runtime_error("failed writing spans to " + path);
}

} // namespace perfbench
