/**
 * @file
 * Pass-through trace instrumentation: counts references by type and
 * tracks the touched-block footprint while forwarding the stream
 * unchanged. Used to report Table 1 style benchmark characteristics.
 */

#ifndef STREAMSIM_TRACE_TRACE_STATS_HH
#define STREAMSIM_TRACE_TRACE_STATS_HH

#include "trace/footprint.hh"
#include "trace/source.hh"
#include "util/stats.hh"

namespace sbsim {

/** Forwards a source while accumulating reference statistics. */
class TraceStats : public TraceSource
{
  public:
    /**
     * @param src Underlying source.
     * @param block_size Block granularity for the footprint count.
     * @param track_footprint Whether to record unique blocks (costs a
     *        hash set proportional to the footprint).
     */
    explicit TraceStats(TraceSource &src, unsigned block_size = 32,
                        bool track_footprint = true)
        : src_(src), footprint_(block_size),
          trackFootprint_(track_footprint)
    {}

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        const std::size_t n = src_.nextBatch(out, max);
        for (std::size_t i = 0; i < n; ++i) {
            switch (out[i].type) {
              case AccessType::IFETCH: ++ifetches_; break;
              case AccessType::LOAD: ++loads_; break;
              case AccessType::STORE: ++stores_; break;
              case AccessType::PREFETCH: ++prefetches_; break;
            }
            if (trackFootprint_ && !out[i].isInstruction())
                footprint_.touch(out[i].addr);
        }
        return n;
    }

    void
    reset() override
    {
        src_.reset();
        ifetches_.reset();
        loads_.reset();
        stores_.reset();
        prefetches_.reset();
        footprint_.clear();
    }

    std::uint64_t ifetches() const { return ifetches_.value(); }
    std::uint64_t loads() const { return loads_.value(); }
    std::uint64_t stores() const { return stores_.value(); }
    std::uint64_t prefetches() const { return prefetches_.value(); }

    std::uint64_t
    dataReferences() const
    {
        return loads() + stores();
    }

    std::uint64_t
    total() const
    {
        return ifetches() + loads() + stores() + prefetches();
    }

    /** Unique data blocks touched (the data footprint), in blocks. */
    std::uint64_t
    uniqueDataBlocks() const
    {
        return footprint_.uniqueBlocks();
    }

    /** Data footprint in bytes. */
    std::uint64_t
    footprintBytes() const
    {
        return footprint_.footprintBytes();
    }

  private:
    TraceSource &src_;
    BlockFootprint footprint_;
    bool trackFootprint_;
    Counter ifetches_;
    Counter loads_;
    Counter stores_;
    Counter prefetches_;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_TRACE_STATS_HH
