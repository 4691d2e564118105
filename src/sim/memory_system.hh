/**
 * @file
 * The paper's system under study (Figure 1): a commodity processor
 * with split on-chip caches, backed *only* by stream buffers and main
 * memory. On-chip misses first compare against the stream buffers; on
 * a stream hit the block is pulled into the primary cache, otherwise
 * the fast path fetches it from main memory. Write-backs bypass the
 * streams and invalidate any stale copies they hold.
 *
 * Besides the paper's hit-rate metrics, an optional timing model
 * quantifies the Section 8 caveat: a "stream hit" whose prefetch has
 * not yet returned from memory stalls for the residual latency.
 */

#ifndef STREAMSIM_SIM_MEMORY_SYSTEM_HH
#define STREAMSIM_SIM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/split_cache.hh"
#include "cache/victim_buffer.hh"
#include "mem/main_memory.hh"
#include "mem/translation.hh"
#include "stream/prefetch_engine.hh"
#include "trace/miss_trace.hh"
#include "trace/source.hh"
#include "util/event_trace.hh"
#include "util/stats.hh"

namespace sbsim {

class ReuseProfiler;

/** Static configuration of the simulated system. */
struct MemorySystemConfig
{
    SplitCacheConfig l1 = SplitCacheConfig::paperDefault();
    bool useStreams = true;
    StreamEngineConfig streams;

    /**
     * Optional unified secondary cache. Three system styles fall out:
     *  - conventional (useL2, !useStreams): the circa-1993 workstation
     *    the paper wants to replace;
     *  - streams-only (!useL2, useStreams): the paper's proposal
     *    (Figure 1);
     *  - hybrid (useL2, useStreams): Jouppi's original arrangement,
     *    streams prefetching out of the secondary cache.
     */
    bool useL2 = false;
    CacheConfig l2 = {1024 * 1024, 4, 64, ReplacementKind::LRU, true,
                      true, 3};
    unsigned l2HitCycles = 10;

    unsigned memLatencyCycles = 50;
    unsigned l1HitCycles = 1;
    /**
     * Bus occupancy per block transfer, in cycles (0 = infinite
     * bandwidth). Demand fetches, prefetches and write-backs all
     * occupy the bus; when prefetch traffic saturates it, demand
     * fetches queue behind — the cost the paper's extra-bandwidth
     * metric stands in for.
     */
    unsigned busCyclesPerBlock = 0;
    /** Stream hit service time; small because there is no RAM lookup
     *  (Section 8). */
    unsigned streamHitCycles = 2;
    /**
     * Jouppi victim buffer between the data cache and the streams
     * (Section 4.1: needed to absorb conflict misses when the primary
     * cache is direct-mapped). 0 disables it.
     */
    std::uint32_t victimBufferEntries = 0;
    unsigned victimHitCycles = 2;
    /**
     * Virtual-to-physical page mapping applied to every reference.
     * IDENTITY reproduces the paper; SHUFFLED models an OS's scattered
     * frame allocation, which fragments strides beyond one page and
     * stresses the (physically-addressed) czone detector.
     */
    TranslationMode translation = TranslationMode::IDENTITY;
    unsigned pageBits = 12;
    std::uint64_t translationSeed = 0x9e3779b97f4a7c15ULL;
};

/**
 * Where every simulated cycle went. The components are disjoint and
 * sum exactly to SystemResults::cycles — finish() asserts it — so the
 * exporter can report a breakdown that provably accounts for all
 * simulated time.
 */
struct CycleBreakdown
{
    std::uint64_t l1Hit = 0;          ///< L1 hit service time.
    std::uint64_t victimHit = 0;      ///< Victim-buffer hit service.
    std::uint64_t streamHit = 0;      ///< Stream hit service time.
    std::uint64_t streamStall = 0;    ///< Residual prefetch latency.
    std::uint64_t demandFetch = 0;    ///< L2/memory demand service.
    std::uint64_t busQueue = 0;       ///< Demand time lost queueing.
    std::uint64_t swPrefetchIssue = 0;///< SW prefetch issue slots.

    std::uint64_t
    total() const
    {
        return l1Hit + victimHit + streamHit + streamStall +
               demandFetch + busQueue + swPrefetchIssue;
    }
};

/** Aggregated results of one simulation run. */
struct SystemResults
{
    std::uint64_t references = 0;
    std::uint64_t instructionRefs = 0;
    std::uint64_t dataRefs = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l1DataMisses = 0;
    std::uint64_t streamHits = 0;
    std::uint64_t victimHits = 0;
    std::uint64_t writebacks = 0;

    double l1MissRatePercent = 0;
    double l1DataMissRatePercent = 0;
    double missesPerInstructionPercent = 0;
    double streamHitRatePercent = 0;
    double extraBandwidthPercent = 0;
    /** Victim-buffer hits over L1 data misses, each of which probes
     *  the buffer; 0 without a victim buffer. */
    double victimHitRatePercent = 0;

    /** Secondary cache outcomes (zero without an L2). */
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    double l2LocalHitRatePercent = 0;

    /** Software-prefetch instruction outcomes (zero unless the trace
     *  contains PREFETCH references). */
    std::uint64_t swPrefetches = 0;
    std::uint64_t swPrefetchesIssued = 0;    ///< Fetched a block.
    std::uint64_t swPrefetchesRedundant = 0; ///< Block already cached.

    /** Timing model outputs. */
    std::uint64_t cycles = 0;
    std::uint64_t streamHitsReady = 0;   ///< Data had returned in time.
    std::uint64_t streamHitsPending = 0; ///< Stalled on in-flight data.
    std::uint64_t busQueueCycles = 0;    ///< Demand time lost queueing.
    double avgAccessCycles = 0;

    /** Per-component cycle accounting; sums exactly to `cycles`. */
    CycleBreakdown cycleBreakdown;
};

/**
 * Every integer a run reports, in one record. A full or replayed run
 * reports the counts at finish() minus those at endWarmup(); a
 * sampled run, its intervals' counts weighted. No rate is kept here:
 * deriveResults() computes every one.
 */
struct RunCounts
{
    /** Taken from the recorded summary in a replayed run. */
    FrontEndCounts frontEnd;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t streamHitsReady = 0;
    std::uint64_t streamHitsPending = 0;
    std::uint64_t cycles = 0;
    CycleBreakdown cycleBreakdown;
    /** Zero without streams. */
    StreamEngineStats engine;
};

/**
 * The one list of RunCounts' counts. Calls @p fn once per count with
 * an accessor: count(c) is that count of any record c, so one body
 * subtracts two records or weights many. A new count is added to
 * RunCounts, to this list and to MemorySystem::readCounts(); the
 * warmup subtraction and the sampled weighting then cover it.
 */
template <typename Fn>
void
forEachCount(Fn &&fn)
{
    fn([](auto &c) -> auto & { return c.frontEnd.instructionRefs; });
    fn([](auto &c) -> auto & { return c.frontEnd.dataRefs; });
    fn([](auto &c) -> auto & { return c.frontEnd.swPrefetches; });
    fn([](auto &c) -> auto & { return c.frontEnd.swPrefetchesIssued; });
    fn([](auto &c) -> auto & { return c.frontEnd.swPrefetchesRedundant; });
    fn([](auto &c) -> auto & { return c.frontEnd.l1Misses; });
    fn([](auto &c) -> auto & { return c.frontEnd.l1DataMisses; });
    fn([](auto &c) -> auto & { return c.frontEnd.victimHits; });
    fn([](auto &c) -> auto & { return c.frontEnd.writebacks; });
    fn([](auto &c) -> auto & { return c.l2Hits; });
    fn([](auto &c) -> auto & { return c.l2Misses; });
    fn([](auto &c) -> auto & { return c.streamHitsReady; });
    fn([](auto &c) -> auto & { return c.streamHitsPending; });
    fn([](auto &c) -> auto & { return c.cycles; });
    fn([](auto &c) -> auto & { return c.cycleBreakdown.l1Hit; });
    fn([](auto &c) -> auto & { return c.cycleBreakdown.victimHit; });
    fn([](auto &c) -> auto & { return c.cycleBreakdown.streamHit; });
    fn([](auto &c) -> auto & { return c.cycleBreakdown.streamStall; });
    fn([](auto &c) -> auto & { return c.cycleBreakdown.demandFetch; });
    fn([](auto &c) -> auto & { return c.cycleBreakdown.busQueue; });
    fn([](auto &c) -> auto & { return c.cycleBreakdown.swPrefetchIssue; });
    fn([](auto &c) -> auto & { return c.engine.lookups; });
    fn([](auto &c) -> auto & { return c.engine.hits; });
    fn([](auto &c) -> auto & { return c.engine.streamMisses; });
    fn([](auto &c) -> auto & { return c.engine.allocations; });
    fn([](auto &c) -> auto & { return c.engine.prefetchesIssued; });
    fn([](auto &c) -> auto & { return c.engine.uselessFlushed; });
    fn([](auto &c) -> auto & { return c.engine.uselessInvalidated; });
}

/**
 * The operands of every reported rate, as doubles: exact conversions
 * of one run's counts, or a sampled run's weighted sums over its
 * intervals. Three operands add counts within a run before weighting
 * (accesses, references, uselessPrefetches): in floating point a
 * weighted sum of sums is not the sum of the weighted sums.
 */
struct RateOperands
{
    double instructionRefs = 0;
    double dataRefs = 0;
    double accesses = 0;   ///< Instruction + data references.
    double references = 0; ///< All references, as in RunCounts.
    double l1Misses = 0;
    double l1DataMisses = 0;
    double victimHits = 0;
    double streamLookups = 0;
    double streamHits = 0;
    double uselessPrefetches = 0; ///< Useless flushed + invalidated.
    double l2Hits = 0;
    double l2Misses = 0;
    double cycles = 0;

    /** Add @p weight times each operand of @p counts. */
    void add(const RunCounts &counts, double weight);
};

/**
 * The one rate derivation: @p counts as SystemResults, with every
 * rate a ratio of @p operands. Full, replayed and sampled runs all
 * report through it.
 */
SystemResults deriveResults(const RunCounts &counts,
                            const RateOperands &operands);

/** deriveResults() over the exact operands of @p counts. */
SystemResults deriveResults(const RunCounts &counts);

/** L1 + stream buffers + main memory, driven by a reference trace. */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemorySystemConfig &config);

    /** Simulate one reference. */
    void processAccess(const MemAccess &access);

    /**
     * Attach an opt-in structural event trace (caller-owned; must
     * outlive the system). Pass nullptr to detach. When detached —
     * the default — every emission site costs exactly one null test.
     */
    void attachEventTrace(EventTrace *trace);

    const EventTrace *eventTrace() const { return events_; }

    /** References pulled per nextBatch() call by run(). */
    static constexpr std::size_t kRunBatch = 256;

    /**
     * Drain @p src through the system in kRunBatch-sized batches.
     * Produces results bit-identical to calling processAccess() per
     * next() reference. @return references processed.
     */
    std::uint64_t run(TraceSource &src);

    /**
     * Flush streams and report the run's counts: the counts now minus
     * those at endWarmup() (zero when it was never called), with a
     * replayed run's front end taken from the recorded summary. Safe
     * to call repeatedly; the system cannot process further accesses
     * afterwards.
     */
    RunCounts finishCounts();

    /** finishCounts() with every rate derived (deriveResults). */
    SystemResults finish() { return deriveResults(finishCounts()); }

    /**
     * Mark everything processed so far as warmup: finishCounts() will
     * report counts measured from this point only, while the warm
     * microarchitectural state (caches, streams, victim buffer, bus
     * clock) carries over. Used by the sampled fidelity mode to run
     * an uncounted warmup prefix before each measured interval. At
     * most once per system; incompatible with miss-trace recording
     * and replay.
     */
    void endWarmup();

    /**
     * Feed @p profiler every demand miss that reaches the secondary
     * level (one that escaped the L1 and the victim buffer), in
     * order, while accesses are processed: the stream of DEMAND
     * records recordMissTrace would write, profiled without storing
     * it. Caller-owned; must outlive the run. Orthogonal to the
     * configured secondary level.
     */
    void attachReuseProfiler(ReuseProfiler *profiler);

    /**
     * Drive only the secondary level (streams / L2 / bus / memory)
     * from a recorded post-L1 stream. The trace must have been
     * recorded under a front end matching this system's (same
     * frontEndKey); streams, L2 and bus parameters are free to
     * differ. finish() afterwards reports results bit-identical to a
     * full run of the original reference trace.
     * @return references the recorded run processed.
     */
    std::uint64_t replayMissTrace(const MissTrace &trace);

    const SplitCache &l1() const { return l1_; }
    const Cache *l2() const { return l2_.get(); }
    const MainMemory &memory() const { return memory_; }
    const PrefetchEngine *engine() const { return engine_.get(); }
    PrefetchEngine *engine() { return engine_.get(); }
    const VictimBuffer *victimBuffer() const
    {
        return victimBuffer_.get();
    }

    /** Shares (%) of the Table 3 stream-length buckets over the
     *  whole run, a warmup prefix included; empty without streams. */
    std::vector<double> lengthSharesPercent() const;

  private:
    friend MissTrace recordMissTrace(TraceSource &src,
                                     const MemorySystemConfig &config);

    /**
     * Record the post-L1 stream (demand misses, software-prefetch
     * fetches, write-backs, with front-end cycle deltas) into
     * @p trace while accesses are processed. Caller-owned; must
     * outlive the run. Call finalizeMissRecorder() afterwards to fill
     * the trace's front-end summary. Only recordMissTrace records: it
     * disables streams/L2/bus so the recording run is itself cheap.
     */
    void attachMissRecorder(MissTrace *trace);

    /** Flush trailing cycle deltas and capture the front-end summary
     *  into the attached recorder. Must precede finish(). */
    void finalizeMissRecorder();

    /** Every count as the live counters hold it now, warmup
     *  included. */
    RunCounts readCounts() const;

    /** Handle an eviction: via the victim buffer when present. */
    void handleEviction(const CacheResult &result);

    /** Secondary-level service of a demand miss that escaped the L1
     *  and victim buffer: streams, then L2/memory. */
    void secondaryDemand(const MemAccess &access);

    /** Secondary-level service of a software prefetch that missed the
     *  L1 (the front end already charged the issue slot). */
    void secondarySwPrefetchFetch(const MemAccess &access);

    /** Append one record to the attached recorder, flushing the
     *  front-end cycle deltas accumulated since the previous one. */
    void recordMissEvent(MissRecord::Kind kind, const MemAccess &access);

    /** Advance the cycle clock by recorded front-end deltas. */
    void applyFrontEndDeltas(std::uint64_t d_l1_hit,
                             std::uint64_t d_victim_hit,
                             std::uint64_t d_sw_prefetch);

    /** A dirty block leaves the chip for memory. */
    void writebackToMemory(BlockAddr block);

    /** Occupy the bus for one block; @return the queueing delay. */
    std::uint64_t occupyBus();

    /** What one block fetch costs its requester. */
    struct FetchCost
    {
        std::uint64_t cycles = 0; ///< The latency the requester sees,
        std::uint64_t queued = 0; ///< of which queueing for the bus.
    };

    /**
     * Fetch one block below the streams: from the L2 when present
     * and hit, otherwise from main memory.
     */
    FetchCost fetchBlock(Addr addr, TrafficKind kind);

    MemorySystemConfig config_;
    PageMapper pageMapper_;
    SplitCache l1_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<PrefetchEngine> engine_;
    std::unique_ptr<VictimBuffer> victimBuffer_;
    MainMemory memory_;

    std::uint64_t cycles_ = 0;
    std::uint64_t busFreeAt_ = 0;
    Counter streamHitsReady_;
    Counter streamHitsPending_;
    Counter victimHits_;
    Counter swPrefetches_;
    Counter swPrefetchesIssued_;
    Counter swPrefetchesRedundant_;

    /** Disjoint cycle accounting; finish() asserts the components sum
     *  to cycles_. */
    Counter cyclesL1Hit_;
    Counter cyclesVictimHit_;
    Counter cyclesStreamHit_;
    Counter cyclesStreamStall_;
    Counter cyclesDemandFetch_;
    Counter cyclesBusQueue_;
    Counter cyclesSwPrefetch_;

    EventTrace *events_ = nullptr;
    bool finished_ = false;

    /** Miss-stream recording state (attachMissRecorder): snapshots of
     *  the front-end cycle counters at the previous record. Per-event
     *  deltas are derived by subtraction in recordMissEvent, so
     *  recording adds no work to the L1-hit fast path. */
    MissTrace *missRecorder_ = nullptr;
    /** Live analytic-L2 tap (attachReuseProfiler). */
    ReuseProfiler *reuseProfiler_ = nullptr;
    std::uint64_t recBaseL1HitCycles_ = 0;
    std::uint64_t recBaseVictimHitCycles_ = 0;
    std::uint64_t recBaseSwPrefetchCycles_ = 0;

    /** The recorded front end finishCounts() reports after
     *  replayMissTrace. */
    std::optional<FrontEndCounts> replayedFrontEnd_;

    /** readCounts() at endWarmup(), subtracted once by
     *  finishCounts(), never on the per-reference path. */
    RunCounts warmupCounts_;
    bool warmed_ = false;
};

/**
 * Canonical cache key for the L1 front end of @p config: every
 * parameter that can change the post-L1 stream (L1 geometry /
 * replacement / seeds, hit latency, victim buffer, page translation)
 * and nothing that cannot (streams, L2, bus, memory latency). Two
 * configs with equal keys share one MissTrace per source.
 */
std::string frontEndKey(const MemorySystemConfig &config);

/**
 * Simulate only the front end of @p config over @p src and return the
 * recorded post-L1 stream (summary finalized). The recording run
 * disables streams, L2 and the bus model, so it costs about one
 * L1-only simulation.
 */
MissTrace recordMissTrace(TraceSource &src,
                          const MemorySystemConfig &config);

} // namespace sbsim

#endif // STREAMSIM_SIM_MEMORY_SYSTEM_HH
