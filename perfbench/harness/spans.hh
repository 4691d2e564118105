/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one timed call into a simulator layer: a name, start and
 * end (steady_clock nanoseconds since the recorder was created), the
 * span that caused it, a group identifier shared by every span of one
 * job or request, and the number of work items (references, misses,
 * requests) the call processed. Spans are kept in memory and written
 * out once, when the run ends. A disabled recorder costs one branch
 * per span and records nothing, which is what the untraced runs use.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root.
    std::uint64_t group = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t items = 0;
};

/** Totals of one span name: self time and work items. */
struct LayerTotal
{
    std::int64_t selfNs = 0;
    std::uint64_t items = 0;
    std::uint64_t calls = 0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span inside the innermost span open on this thread;
     *  @return its id (0 when disabled). */
    std::uint64_t begin(const char *name, std::uint64_t group);
    /** Close span @p id, crediting it with @p items work items. */
    void end(std::uint64_t id, std::uint64_t items);

    /** Per-name totals; self time subtracts the union of each span's
     *  children's intervals. */
    std::map<std::string, LayerTotal> totals() const;

    /** One JSON object per span, one per line. */
    void writeJsonLines(std::ostream &os) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< Indexed by id - 1.
};

/** RAII span; call setItems() before it closes. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, std::uint64_t group)
        : rec_(rec), id_(rec.begin(name, group))
    {}
    ~ScopedSpan() { rec_.end(id_, items_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void setItems(std::uint64_t n) { items_ = n; }

  private:
    SpanRecorder &rec_;
    std::uint64_t id_;
    std::uint64_t items_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
