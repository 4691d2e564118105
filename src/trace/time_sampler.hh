/**
 * @file
 * Time sampling of reference traces, as in Kessler, Hill & Wood [11]
 * and Section 4.1 of the paper: tracing is switched on for `on_count`
 * references and off for `off_count`, so only a fraction of the trace
 * reaches the simulator. The paper samples 10% with on=10,000 and
 * off=90,000.
 */

#ifndef STREAMSIM_TRACE_TIME_SAMPLER_HH
#define STREAMSIM_TRACE_TIME_SAMPLER_HH

#include <cstdint>
#include <memory>

#include "trace/source.hh"
#include "util/audit.hh"
#include "util/logging.hh"

namespace sbsim {

/** Passes through windows of references and drops the gaps between. */
class TimeSampler : public TraceSource
{
  public:
    /**
     * @param src Underlying source; must outlive the sampler.
     * @param on_count References passed through per period (the
     *        paper's 10,000 by default).
     * @param off_count References dropped per period (the paper's
     *        90,000 by default).
     */
    TimeSampler(TraceSource &src, std::uint64_t on_count = 10000,
                std::uint64_t off_count = 90000)
        : src_(src), onCount_(on_count), offCount_(off_count)
    {
        SBSIM_ASSERT(on_count > 0, "time sampler needs on_count > 0");
    }

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        std::size_t n = 0;
        while (n < max) {
            if (inWindow_ == onCount_ && !skipOffWindow())
                return n;
            // Pull the rest of the on window in one batched read.
            std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(max - n, onCount_ - inWindow_));
            std::size_t got = src_.nextBatch(out + n, want);
            inWindow_ += got;
            sampled_ += got;
            n += got;
            // The on window may never overrun, or the sampled stream
            // would depend on the batch sizes asked for.
            SBSIM_AUDIT(inWindow_ <= onCount_,
                        "batched sampling window overran: ", inWindow_,
                        " of ", onCount_);
            SBSIM_AUDIT(got <= want, "source over-delivered: ", got,
                        " of ", want);
            if (got < want)
                return n;
        }
        return n;
    }

    void
    reset() override
    {
        src_.reset();
        inWindow_ = 0;
        sampled_ = 0;
        skipped_ = 0;
    }

    std::uint64_t sampledCount() const { return sampled_; }
    std::uint64_t skippedCount() const { return skipped_; }

    std::optional<SamplerCounts>
    samplerCounts() const override
    {
        return SamplerCounts{sampled_, skipped_};
    }

  private:
    /**
     * Drop the off window, pulling the underlying source in batches
     * (one virtual dispatch per 256 dropped references instead of one
     * each — the off window is 9x the on window at the paper's 10%
     * sampling, so this dominated the sampler's cost).
     * A short batch is not the end of the source: only an empty one
     * is, so the window spans the same references whatever batches
     * the source hands out.
     * @return false when the source ran dry mid-window.
     */
    bool
    skipOffWindow()
    {
        MemAccess dropped[256];
        std::uint64_t left = offCount_;
        while (left > 0) {
            std::size_t got = src_.nextBatch(
                dropped, static_cast<std::size_t>(
                             std::min<std::uint64_t>(left, 256)));
            if (got == 0)
                return false;
            skipped_ += got;
            left -= got;
        }
        inWindow_ = 0;
        return true;
    }

    TraceSource &src_;
    std::uint64_t onCount_;
    std::uint64_t offCount_;
    std::uint64_t inWindow_ = 0;
    std::uint64_t sampled_ = 0;
    std::uint64_t skipped_ = 0;
};

/**
 * Truncates a source after a fixed number of references. The batched
 * path clamps `max` and delegates straight to the underlying source's
 * nextBatch, so a SharedTraceView below it costs one copy per
 * reference (the memcpy into the consumer's batch buffer) and no
 * per-record virtual dispatch.
 */
class TruncatingSource : public TraceSource
{
  public:
    TruncatingSource(TraceSource &src, std::uint64_t limit)
        : src_(src), limit_(limit)
    {}

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(max, limit_ - emitted_));
        std::size_t got = src_.nextBatch(out, want);
        emitted_ += got;
        return got;
    }

    void
    reset() override
    {
        src_.reset();
        emitted_ = 0;
    }

    std::optional<SamplerCounts>
    samplerCounts() const override
    {
        return src_.samplerCounts();
    }

  private:
    TraceSource &src_;
    std::uint64_t limit_;
    std::uint64_t emitted_ = 0;
};

/**
 * The one input chain every run and sweep job reads: @p base,
 * time-sampled at the paper's windows when @p time_sample is set,
 * truncated after @p ref_limit references. The chain owns every link.
 */
inline std::unique_ptr<TraceSource>
makeInputChain(std::unique_ptr<TraceSource> base, bool time_sample,
               std::uint64_t ref_limit)
{
    auto chain = std::make_unique<OwningSourceChain>();
    TraceSource *head = &chain->add(std::move(base));
    if (time_sample)
        head = &chain->add(std::make_unique<TimeSampler>(*head));
    chain->add(std::make_unique<TruncatingSource>(*head, ref_limit));
    return chain;
}

} // namespace sbsim

#endif // STREAMSIM_TRACE_TIME_SAMPLER_HH
