/**
 * @file
 * Level-1 trace reuse: an immutable, flat MemAccess buffer produced
 * once per unique (benchmark, scale, ref_limit, time_sample) source
 * key, shared across sweep jobs via shared_ptr<const ...>, and
 * replayed by SharedTraceView — a TraceSource whose batched path
 * copies contiguous spans out of the shared buffer (and whose
 * nextSpan() hands out zero-copy pointers for consumers that can take
 * them, e.g. MemorySystem::run).
 */

#ifndef STREAMSIM_TRACE_MATERIALIZED_TRACE_HH
#define STREAMSIM_TRACE_MATERIALIZED_TRACE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "trace/source.hh"

namespace sbsim {

class TimeSampler;

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
     * @param sampler When the chain behind @p src contains a
     *        TimeSampler, that link: its pass-through counts are
     *        recorded once the drain ends, so runs replaying this
     *        trace can still report them (the sampler itself is gone
     *        by replay time).
     */
    static std::shared_ptr<const MaterializedTrace>
    fromSource(TraceSource &src, const TimeSampler *sampler = nullptr);

    ~MaterializedTrace();
    MaterializedTrace(const MaterializedTrace &) = delete;
    MaterializedTrace &operator=(const MaterializedTrace &) = delete;

    const MemAccess *data() const { return refs_; }
    std::size_t size() const { return size_; }

    /** True when the producing chain's TimeSampler counts were
     *  recorded at materialization time. */
    bool hasSamplerCounts() const { return hasSamplerCounts_; }
    std::uint64_t samplerSampled() const { return samplerSampled_; }
    std::uint64_t samplerSkipped() const { return samplerSkipped_; }

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
    std::uint64_t samplerSampled_ = 0;
    std::uint64_t samplerSkipped_ = 0;
    bool hasSamplerCounts_ = false;
};

/**
 * A TraceSource view over a MaterializedTrace. Each consumer owns its
 * own view (a cursor plus a strong reference keeping the trace
 * alive), so any number of jobs replay the same buffer concurrently
 * without synchronisation. Delivers exactly the materialised
 * sequence: next(), nextBatch() and nextSpan() are interchangeable.
 */
class SharedTraceView final : public TraceSource
{
  public:
    explicit SharedTraceView(
        std::shared_ptr<const MaterializedTrace> trace)
        : trace_(std::move(trace))
    {}

    bool
    next(MemAccess &out) override
    {
        if (pos_ >= trace_->size())
            return false;
        out = trace_->data()[pos_++];
        return true;
    }

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        std::size_t n = std::min(max, trace_->size() - pos_);
        std::copy_n(trace_->data() + pos_, n, out);
        pos_ += n;
        return n;
    }

    /**
     * Zero-copy variant of nextBatch: point @p out at the remaining
     * span of the shared buffer and consume it. The span stays valid
     * for the lifetime of this view (which keeps the trace alive).
     * @return the span length; 0 when exhausted.
     */
    std::size_t
    nextSpan(const MemAccess **out)
    {
        *out = trace_->data() + pos_;
        std::size_t n = trace_->size() - pos_;
        pos_ = trace_->size();
        return n;
    }

    void reset() override { pos_ = 0; }

    std::size_t remaining() const { return trace_->size() - pos_; }

    const std::shared_ptr<const MaterializedTrace> &trace() const
    {
        return trace_;
    }

  private:
    std::shared_ptr<const MaterializedTrace> trace_;
    std::size_t pos_ = 0;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_MATERIALIZED_TRACE_HH
