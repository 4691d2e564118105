/**
 * @file
 * The stream-buffer prefetch engine: composes the multi-way stream set
 * with the unit-stride allocation filter (Section 6) and a non-unit
 * stride detector (Section 7), and keeps the statistics the paper
 * reports — stream hit rate, extra bandwidth (EB) and the stream
 * length distribution (Table 3).
 *
 * Reference handling on every primary-cache miss:
 *   1. compare the miss address against every stream head; on a hit
 *      the block moves to the primary cache and the stream prefetches
 *      one replacement block;
 *   2. on a stream miss, decide whether to (re)allocate a stream:
 *      - ALWAYS policy: reallocate the LRU stream at the miss target
 *        (Jouppi's original behaviour, Section 5);
 *      - UNIT_FILTER policy: allocate only when the unit-stride filter
 *        verifies misses to two consecutive blocks; references that
 *        also miss in the unit filter optionally fall through to the
 *        czone or minimum-delta stride detector.
 */

#ifndef STREAMSIM_STREAM_PREFETCH_ENGINE_HH
#define STREAMSIM_STREAM_PREFETCH_ENGINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "mem/block.hh"
#include "mem/types.hh"
#include "stream/czone_filter.hh"
#include "stream/min_delta.hh"
#include "stream/stream_set.hh"
#include "stream/unit_filter.hh"
#include "util/event_trace.hh"
#include "util/stats.hh"

namespace sbsim {

/** When is a stream (re)allocated on a stream miss? */
enum class AllocationPolicy : std::uint8_t
{
    ALWAYS,      ///< Every stream miss reallocates (Section 5).
    UNIT_FILTER, ///< Only after two consecutive-block misses (Sec. 6).
};

/** Which non-unit-stride detector backs the unit filter? */
enum class StrideDetection : std::uint8_t
{
    NONE,
    CZONE,     ///< Partition scheme of Section 7.
    MIN_DELTA, ///< Alternative scheme of Section 7.
};

/** Inclusive upper bounds of the Table 3 stream-length buckets (1-5,
 *  6-10, 11-15, 16-20, >20). The engine and the stream-stack pass
 *  (sim/stream_stack.hh) both bucket flushed runs by them. */
inline constexpr std::uint64_t kStreamLengthBounds[] = {5, 10, 15, 20};

/** Static configuration of the prefetch engine. */
struct StreamEngineConfig
{
    /** At most StreamSet::kMaxStreams; service::validateSpec rejects
     *  larger requests before an engine is built. */
    std::uint32_t numStreams = 10;
    /** Paper default (Section 3); at most StreamSet::kMaxDepth. */
    std::uint32_t depth = 2;
    std::uint32_t blockSize = 32;
    /** Victim choice on reallocation (paper: LRU; Section 3). */
    StreamReplacement replacement = StreamReplacement::LRU;
    AllocationPolicy allocation = AllocationPolicy::ALWAYS;
    std::uint32_t unitFilterEntries = 16;
    StrideDetection strideDetection = StrideDetection::NONE;
    std::uint32_t strideFilterEntries = 16;
    unsigned czoneBits = 18;
    std::uint64_t minDeltaMaxStride = 1 << 20;
    /** Split streams into separate I and D banks (ablation; the paper
     *  found this not beneficial). */
    bool partitioned = false;
    /**
     * Match non-head FIFO entries too (Jouppi's quasi-sequential
     * variant; ablation). The paper uses head-only comparison, which
     * needs one comparator per stream instead of one per entry.
     */
    bool associativeLookup = false;
};

/** Outcome of presenting one primary-cache miss to the engine. */
struct EngineOutcome
{
    bool streamHit = false;
    std::uint64_t issueTick = 0;      ///< When the hit block's prefetch
                                      ///< was issued (timing model).
    std::uint32_t prefetchesIssued = 0; ///< New blocks sent to memory.
    bool allocated = false;           ///< A stream was (re)allocated.
};

/** Aggregated engine statistics. */
struct StreamEngineStats
{
    std::uint64_t lookups = 0;       ///< Primary-cache misses seen.
    std::uint64_t hits = 0;          ///< Stream hits.
    std::uint64_t streamMisses = 0;  ///< Missed streams too.
    std::uint64_t allocations = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t uselessFlushed = 0;
    std::uint64_t uselessInvalidated = 0;

    double hitRatePercent() const { return percent(hits, lookups); }

    /** Useless prefetched blocks as % of the program's own demand
     *  fetches — the paper's EB metric. */
    double
    extraBandwidthPercent() const
    {
        return percent(uselessFlushed + uselessInvalidated, lookups);
    }
};

/** Stream buffers + filters + accounting. */
class PrefetchEngine
{
  public:
    explicit PrefetchEngine(const StreamEngineConfig &config);

    // lastIssuedBlocks() views a member set's buffer, so an engine
    // never moves.
    PrefetchEngine(const PrefetchEngine &) = delete;
    PrefetchEngine &operator=(const PrefetchEngine &) = delete;

    const StreamEngineConfig &config() const { return config_; }

    /**
     * Present one primary-cache miss.
     * @param access The missing reference.
     * @param now Simulation tick (for prefetch timestamps).
     */
    EngineOutcome onPrimaryMiss(const MemAccess &access, std::uint64_t now);

    /**
     * Block addresses of the prefetches issued by the most recent
     * onPrimaryMiss call (matches EngineOutcome::prefetchesIssued).
     * The memory side uses these to route prefetches through a
     * secondary cache and onto the bus. The span views a stream set's
     * issue buffer: it is valid until the next onPrimaryMiss.
     */
    std::span<const BlockAddr> lastIssuedBlocks() const
    {
        return lastIssued_;
    }

    /** A write-back is passing to memory: invalidate stale copies. */
    void onWriteback(BlockAddr block);

    /**
     * Attach an opt-in structural event trace (caller-owned; must
     * outlive the engine). Records filter verdicts, czone partition
     * assignments, stream allocations and flushes. nullptr detaches.
     */
    void setEventTrace(EventTrace *trace) { events_ = trace; }

    /**
     * Flush all streams and fold the leftovers into the statistics.
     * Call once at end of simulation before reading stats.
     */
    void finalize();

    const StreamEngineStats &engineStats() const { return stats_; }

    /** Distribution of stream lengths, weighted by hits (Table 3). */
    const BucketedDistribution &lengthDistribution() const
    {
        return lengthDist_;
    }

    /** The unit filter, when configured (tests / reporting). */
    const UnitStrideFilter *unitFilter() const { return unitFilter_.get(); }
    const CzoneFilter *czoneFilter() const { return czoneFilter_.get(); }
    const MinDeltaDetector *minDelta() const { return minDelta_.get(); }

    /** Export counters for reporting. */
    StatGroup stats() const;

    /** Restore the constructed state: streams, filters, statistics
     *  and every replacement policy's clock, pointer and generator. */
    void reset();

  private:
    /** The stream-miss half of onPrimaryMiss: the allocation decision
     *  and the reallocation it leads to, with its accounting. */
    EngineOutcome onStreamMiss(StreamSet &set, const MemAccess &access,
                               std::uint64_t now);

    StreamSet &
    setFor(const MemAccess &access)
    {
        if (instStreams_ && access.isInstruction())
            return *instStreams_;
        return dataStreams_;
    }

    void recordRun(const StreamFlush &flushed, std::uint64_t now);

    StreamEngineConfig config_;
    BlockMapper mapper_;
    std::unique_ptr<UnitStrideFilter> unitFilter_;
    std::unique_ptr<CzoneFilter> czoneFilter_;
    std::unique_ptr<MinDeltaDetector> minDelta_;

    StreamEngineStats stats_;
    BucketedDistribution lengthDist_;
    /** The issue buffer of the set the last miss went to. */
    std::span<const BlockAddr> lastIssued_;
    EventTrace *events_ = nullptr;
    /** Tick of the most recent onPrimaryMiss; timestamps the flush
     *  events finalize() emits for the streams still alive at EOF. */
    std::uint64_t lastTick_ = 0;
    bool finalized_ = false;

    /** Only when partitioned: allocated once, so an unpartitioned
     *  engine carries one inline set, not two. */
    std::unique_ptr<StreamSet> instStreams_;
    // The data set last: it holds its streams inline.
    StreamSet dataStreams_;
};

// The hit path is defined here so the memory system inlines it; a
// stream miss leaves through the out-of-line onStreamMiss().
// analyze:hot-path
inline EngineOutcome
PrefetchEngine::onPrimaryMiss(const MemAccess &access, std::uint64_t now)
{
    SBSIM_ASSERT(!finalized_, "onPrimaryMiss after finalize");
    ++stats_.lookups;
    lastTick_ = now;

    // Every prefetch this miss issues lands in the set's issue buffer:
    // the refills of a hit, the FIFO of an allocation, or nothing.
    StreamSet &set = setFor(access);
    StreamLookup lookup =
        set.lookup(access.addr, now, config_.associativeLookup);
    lastIssued_ = set.issued();
    if (!lookup.hit)
        return onStreamMiss(set, access, now);

    const auto issued = static_cast<std::uint32_t>(lastIssued_.size());
    ++stats_.hits;
    stats_.uselessFlushed += lookup.skipped;
    stats_.prefetchesIssued += issued;
    EngineOutcome outcome;
    outcome.streamHit = true;
    outcome.issueTick = lookup.issueTick;
    outcome.prefetchesIssued = issued;
    return outcome;
}

} // namespace sbsim

#endif // STREAMSIM_STREAM_PREFETCH_ENGINE_HH
