/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded only in the benchmark's own code, around calls
 * into the program's public functions. Each span carries a name
 * ("<layer>.<what>", layer = a src/ module), start and end times,
 * the thread that ran it and the span that caused it. Spans stay in
 * per-thread buffers until the run ends and are written out once.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Reference to a recorded span: (thread index, span index). */
struct SpanRef
{
    int thread = -1;
    int index = -1;

    bool valid() const { return thread >= 0; }
};

struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    SpanRef parent;
};

/** Per-name totals over the recorded spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double seconds = 0.0;     ///< summed duration
    double selfSeconds = 0.0; ///< minus same-thread child spans
};

class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Nanoseconds since the tracer was created. */
    std::int64_t now() const;

    /** Open a span on the calling thread. Its parent is the
     *  innermost open span on this thread, or @p crossParent when the
     *  thread has none open (work fanned out from another thread). */
    SpanRef open(const char *name, SpanRef crossParent = {});
    void close(SpanRef ref);

    /** Per-name totals; self time subtracts child spans that ran on
     *  the same thread. */
    std::map<std::string, SpanTotals> totals() const;

    /** Self seconds of spans whose layer (the name before the first
     *  '.') is in @p layers, counting only spans of thread 0. */
    double mainThreadLayerSelfSeconds(
        const std::vector<std::string> &layers) const;

    std::size_t spanCount() const;

    /** Write every span as JSON (name, start, end, parent, thread). */
    void writeJson(const std::string &path) const;

  private:
    struct ThreadBuf
    {
        std::vector<Span> spans;
        std::vector<int> open; ///< stack of open span indices
    };

    /** The calling thread's buffer and its index. */
    ThreadBuf &local(int &index);

    std::chrono::steady_clock::time_point origin_;
    std::uint64_t id_; ///< distinguishes tracers in thread caches
    mutable std::mutex mutex_; ///< guards threads_ growth
    std::deque<ThreadBuf> threads_; ///< stable addresses on growth
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, SpanRef crossParent = {})
        : tracer_(t), ref_(t.open(name, crossParent))
    {}
    ~Scope() { tracer_.close(ref_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    SpanRef ref() const { return ref_; }

  private:
    Tracer &tracer_;
    SpanRef ref_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
