#include "spans.hh"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

/** Ids of the spans open on this thread, innermost last. */
thread_local std::vector<std::uint64_t> openSpans;

} // namespace

std::uint64_t
SpanRecorder::begin(const char *name, std::uint64_t group)
{
    if (!enabled_)
        return 0;
    const std::uint64_t parent = openSpans.empty() ? 0 : openSpans.back();
    const std::int64_t start = nowNs();
    std::uint64_t id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = spans_.size() + 1;
        spans_.push_back({name, id, parent, group, start, start, 0});
    }
    openSpans.push_back(id);
    return id;
}

void
SpanRecorder::end(std::uint64_t id, std::uint64_t items)
{
    if (id == 0)
        return;
    const std::int64_t stop = nowNs();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Span &s = spans_[id - 1];
        s.endNs = stop;
        s.items = items;
    }
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
}

std::map<std::string, LayerTotal>
SpanRecorder::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent != 0)
            children[s.parent - 1].emplace_back(s.startNs, s.endNs);
    }
    std::map<std::string, LayerTotal> out;
    for (const Span &s : spans_) {
        auto &kids = children[s.id - 1];
        std::sort(kids.begin(), kids.end());
        // Union of the child intervals, clipped to this span.
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, s.startNs);
            hi = std::min(hi, s.endNs);
            if (hi <= lo)
                continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        LayerTotal &t = out[s.name];
        t.selfNs += s.endNs - s.startNs - covered;
        t.items += s.items;
        ++t.calls;
    }
    return out;
}

void
SpanRecorder::writeJsonLines(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_) {
        os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"group\":" << s.group
           << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
           << ",\"items\":" << s.items << "}\n";
    }
}

} // namespace perfbench
