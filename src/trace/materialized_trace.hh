/**
 * @file
 * Level-1 trace reuse: an immutable, flat MemAccess buffer produced
 * once per unique (benchmark, scale, ref_limit, time_sample) source
 * key, shared across sweep jobs via shared_ptr<const ...>, and
 * replayed whole, or one range at a time (a sampled interval), by
 * SharedTraceView — a TraceSource whose batched path copies
 * contiguous spans out of the shared buffer, and whose nextSpan()
 * hands out zero-copy pointers into it (the path MemorySystem::run
 * reads every source through).
 */

#ifndef STREAMSIM_TRACE_MATERIALIZED_TRACE_HH
#define STREAMSIM_TRACE_MATERIALIZED_TRACE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "trace/source.hh"
#include "util/logging.hh"

namespace sbsim {

/** An immutable in-memory reference trace, safe to share between
 *  threads (readers only ever see const state). */
class MaterializedTrace
{
  public:
    /**
     * Drain @p src to completion into a new shared trace.
     *
     * The source writes its batches straight into one anonymous
     * mapping that grows by remapping (mremap where the platform has
     * it), so references already drained are never copied or faulted
     * in again, and the drain ends by unmapping the unused tail
     * instead of copying to fit. Nothing is sized from a reference limit:
     * the mapping starts small and doubles, so a finite source under
     * any TruncatingSource limit costs memory for what it delivers.
     *
     * The source's sampler counts are recorded once the drain ends,
     * so runs reading this trace can still report them (the sampler
     * itself is gone by then).
     */
    static std::shared_ptr<const MaterializedTrace>
    fromSource(TraceSource &src);

    ~MaterializedTrace();
    MaterializedTrace(const MaterializedTrace &) = delete;
    MaterializedTrace &operator=(const MaterializedTrace &) = delete;

    const MemAccess *data() const { return refs_; }
    std::size_t size() const { return size_; }

    /** The producing chain's TimeSampler counts at the end of the
     *  drain; none when the chain had no sampler. */
    const std::optional<SamplerCounts> &
    samplerCounts() const
    {
        return samplerCounts_;
    }

    /** Bytes the trace holds, for the cache report: the references
     *  it stores, not the address space its drain reserved. */
    std::size_t
    bytes() const
    {
        return sizeof(*this) + size_ * sizeof(MemAccess);
    }

  private:
    MaterializedTrace() = default;

    /** Start of the mapping (null when the trace is empty). */
    MemAccess *refs_ = nullptr;
    std::size_t size_ = 0;
    /** Length of the mapping at refs_, a whole number of pages. */
    std::size_t mappedBytes_ = 0;
    std::optional<SamplerCounts> samplerCounts_;
};

/**
 * A TraceSource view over a MaterializedTrace, or over one range
 * [begin, end) of it. Each consumer owns its own view (a cursor plus
 * a strong reference keeping the trace alive), so any number of jobs
 * replay the same buffer concurrently without synchronisation.
 * Delivers exactly the references of its range, in order: next(),
 * nextBatch() and nextSpan() are interchangeable.
 */
class SharedTraceView final : public TraceSource
{
  public:
    /** A view of the whole trace. */
    explicit SharedTraceView(
        std::shared_ptr<const MaterializedTrace> trace)
        : SharedTraceView(trace, 0, trace->size())
    {}

    /** A view of references [@p begin, @p end) of @p trace. */
    SharedTraceView(std::shared_ptr<const MaterializedTrace> trace,
                    std::size_t begin, std::size_t end)
        : trace_(std::move(trace)), begin_(begin), pos_(begin), end_(end)
    {
        SBSIM_ASSERT(begin <= end && end <= trace_->size(),
                     "trace view [", begin, ", ", end,
                     ") outside a trace of ", trace_->size(),
                     " references");
    }

    bool
    next(MemAccess &out) override
    {
        if (pos_ >= end_)
            return false;
        out = trace_->data()[pos_++];
        return true;
    }

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        std::size_t n = std::min(max, end_ - pos_);
        std::copy_n(trace_->data() + pos_, n, out);
        pos_ += n;
        return n;
    }

    /**
     * Zero-copy: point @p out into the shared buffer itself (the
     * scratch buffer goes unused). The span stays valid for the
     * lifetime of this view, which keeps the trace alive.
     */
    std::size_t
    nextSpan(const MemAccess **out, MemAccess * /*scratch*/,
             std::size_t max) override
    {
        *out = trace_->data() + pos_;
        std::size_t n = std::min(max, end_ - pos_);
        pos_ += n;
        return n;
    }

    void reset() override { pos_ = begin_; }

    std::optional<SamplerCounts>
    samplerCounts() const override
    {
        return trace_->samplerCounts();
    }

    std::size_t remaining() const { return end_ - pos_; }

  private:
    std::shared_ptr<const MaterializedTrace> trace_;
    std::size_t begin_ = 0;
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_MATERIALIZED_TRACE_HH
