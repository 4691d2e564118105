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
     * @param on_count References passed through per period.
     * @param off_count References dropped per period.
     */
    TimeSampler(TraceSource &src, std::uint64_t on_count = 10000,
                std::uint64_t off_count = 90000)
        : src_(src), onCount_(on_count), offCount_(off_count)
    {
        SBSIM_ASSERT(on_count > 0, "time sampler needs on_count > 0");
    }

    bool
    next(MemAccess &out) override
    {
        for (;;) {
            if (inWindow_ < onCount_) {
                if (!src_.next(out))
                    return false;
                ++inWindow_;
                ++sampled_;
                SBSIM_AUDIT(inWindow_ <= onCount_,
                            "sampling window overran: ", inWindow_,
                            " of ", onCount_);
                return true;
            }
            if (!skipOffWindow())
                return false;
        }
    }

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        std::size_t n = 0;
        while (n < max) {
            if (inWindow_ == onCount_) {
                if (!skipOffWindow())
                    return n;
            }
            // Pull the rest of the on window in one batched read.
            std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(max - n, onCount_ - inWindow_));
            std::size_t got = src_.nextBatch(out + n, want);
            inWindow_ += got;
            sampled_ += got;
            n += got;
            // Batched delivery must honour the same window accounting
            // as the per-reference path: the on-window may never
            // overrun, or the sampled stream diverges from serial.
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
     * @return false when the source ran dry mid-window.
     */
    bool
    skipOffWindow()
    {
        MemAccess dropped[256];
        std::uint64_t left = offCount_;
        while (left > 0) {
            std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, 256));
            std::size_t got = src_.nextBatch(dropped, want);
            skipped_ += got;
            left -= got;
            if (got < want)
                return false;
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

    bool
    next(MemAccess &out) override
    {
        if (emitted_ >= limit_)
            return false;
        if (!src_.next(out))
            return false;
        ++emitted_;
        return true;
    }

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

} // namespace sbsim

#endif // STREAMSIM_TRACE_TIME_SAMPLER_HH
