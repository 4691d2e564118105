#include "stream_stack.hh"

#include <algorithm>
#include <iterator>
#include <vector>

#include "mem/block.hh"
#include "util/audit.hh"
#include "util/logging.hh"

namespace sbsim {

bool
streamStackDomain(const MemorySystemConfig &config)
{
    const StreamEngineConfig &s = config.streams;
    return config.useStreams && s.allocation == AllocationPolicy::ALWAYS &&
           s.strideDetection == StrideDetection::NONE &&
           s.replacement == StreamReplacement::LRU &&
           !s.associativeLookup && !s.partitioned && !config.useL2 &&
           config.busCyclesPerBlock == 0;
}

namespace {

/** One stack entry as seen from the top: its head block and whether
 *  that head is valid. A head is invalidated only by a write-back,
 *  which reaches every count holding the entry, so validity is one
 *  bit per entry for every count that has not diverged. */
struct Top
{
    BlockAddr head;
    std::uint32_t entry; ///< Index of the entry's lanes.
    bool valid;
};

/** What one count's engine holds for one stack entry. */
struct Lane
{
    std::uint32_t valid;  ///< Bit per FIFO slot holding a valid entry.
    std::uint32_t head;   ///< Slot of the head entry.
    std::uint32_t hitRun; ///< Hits since the stream was allocated.
    std::uint32_t stream; ///< Physical stream index in the count's set.
};

/** One stream count: its own cycles and counts. */
struct Count
{
    std::uint32_t streams = 0;
    bool diverged = false;
    /** Cycles of this count's secondary level; its clock is the
     *  shared front-end cycles plus these. */
    std::uint64_t own = 0;
    std::uint64_t streamHitCycles = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t demandCycles = 0;
    std::uint64_t hitsReady = 0;
    std::uint64_t hitsPending = 0;
    StreamEngineStats engine;
    BucketedDistribution lengths{{std::begin(kStreamLengthBounds),
                                  std::end(kStreamLengthBounds)}};
};

class StreamStack
{
  public:
    StreamStack(const MemorySystemConfig &config,
                std::span<const std::uint32_t> counts)
        : mapper_(config.l1.dcache.blockSize),
          depth_(config.streams.depth),
          memLatency_(config.memLatencyCycles),
          hitCycles_(config.streamHitCycles)
    {
        SBSIM_ASSERT(streamStackDomain(config),
                     "stream-stack pass outside its domain");
        SBSIM_ASSERT(depth_ > 0 && depth_ <= StreamSet::kMaxDepth,
                     "stream depth ", depth_, " out of range");
        std::vector<std::uint32_t> sorted(counts.begin(), counts.end());
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()),
                     sorted.end());
        for (std::uint32_t k : sorted) {
            SBSIM_ASSERT(k > 0 && k <= StreamSet::kMaxStreams,
                         "stream count ", k, " out of range");
            counts_.emplace_back().streams = k;
        }
        live_ = counts_.size();
        maxStreams_ = counts_.empty() ? 0 : counts_.back().streams;
        stack_.resize(maxStreams_);
        lanes_.resize(std::size_t{maxStreams_} * counts_.size());
        ticks_.resize(lanes_.size() * depth_);
    }

    /** Present one record; false once every count has diverged. */
    bool
    onRecord(const MissRecord &rec)
    {
        l1HitCycles_ += rec.dL1HitCycles;
        victimHitCycles_ += rec.dVictimHitCycles;
        swPrefetchCycles_ += rec.dSwPrefetchCycles;
        front_ += rec.dL1HitCycles + rec.dVictimHitCycles +
                  rec.dSwPrefetchCycles;
        switch (rec.kind) {
          case MissRecord::Kind::WRITEBACK:
            writeback(rec.access.addr);
            break;
          case MissRecord::Kind::SW_PREFETCH:
            // Fetched below the streams, on an unlimited bus: no
            // cycles and no stream state.
            break;
          case MissRecord::Kind::DEMAND:
            demand(mapper_.blockBase(rec.access.addr));
            break;
        }
        return live_ > 0;
    }

    std::map<std::uint32_t, RunOutput> finish(const MissTraceSummary &s);

  private:
    std::size_t
    laneIndex(std::uint32_t entry, std::size_t c) const
    {
        return entry * counts_.size() + c;
    }

    std::uint32_t
    wrap(std::uint32_t slot) const
    {
        return slot >= depth_ ? slot - depth_ : slot;
    }

    void
    diverge(Count &k)
    {
        k.diverged = true;
        --live_;
    }

    /** Fold what flushing a stream discards into @p k, as the engine's
     *  drain and recordRun do. */
    static void
    flush(Count &k, const Lane &lane)
    {
        k.engine.uselessFlushed += StreamSet::countSlots(lane.valid);
        if (lane.hitRun > 0)
            k.lengths.sample(lane.hitRun, lane.hitRun);
    }

    void demand(BlockAddr block);
    void hit(Count &k, std::size_t c, std::uint32_t p, std::uint32_t q,
             BlockAddr block, std::uint64_t now);
    void writeback(BlockAddr block);

    BlockMapper mapper_;
    std::uint32_t depth_;
    std::uint64_t memLatency_;
    std::uint64_t hitCycles_;
    std::vector<Count> counts_;
    std::size_t live_ = 0;
    std::uint32_t maxStreams_ = 0;

    /** Stack entries by depth, most recent first; size_ are in use.
     *  An entry keeps its lane index while it is on the stack, and the
     *  indices in use are exactly 0..size_-1. */
    std::vector<Top> stack_;
    std::uint32_t size_ = 0;
    /** Lanes by (entry, count); each lane's issue ticks by slot. */
    std::vector<Lane> lanes_;
    std::vector<std::uint64_t> ticks_;

    std::uint64_t lookups_ = 0;
    /** Front-end cycles so far, the clock every count shares, and
     *  their breakdown components. */
    std::uint64_t front_ = 0;
    std::uint64_t l1HitCycles_ = 0;
    std::uint64_t victimHitCycles_ = 0;
    std::uint64_t swPrefetchCycles_ = 0;
};

// analyze:hot-path
void
StreamStack::demand(BlockAddr block)
{
    ++lookups_;
    // The most recent valid head holding the block, and the next one
    // below it: a duplicate the engine may pick instead.
    std::uint32_t p = size_, q = size_;
    for (std::uint32_t d = 0; d < size_; ++d) {
        if (stack_[d].head == block && stack_[d].valid) {
            if (p == size_) {
                p = d;
            } else {
                q = d;
                break;
            }
        }
    }
    const bool found = p < size_;
    // The entry that ends on top: the match, else a new one, which
    // takes the bottom entry's lanes when the stack is full.
    std::uint32_t entry = size_;
    if (found)
        entry = stack_[p].entry;
    else if (size_ == maxStreams_)
        entry = stack_[size_ - 1].entry;

    for (std::size_t c = 0; c < counts_.size(); ++c) {
        Count &k = counts_[c];
        if (k.diverged)
            continue;
        const std::uint64_t now = front_ + k.own;
        if (found && k.streams > p) {
            hit(k, c, p, q, block, now);
            continue;
        }
        // A stream miss: reallocate the least recently used stream,
        // the count's entry at depth K-1, or a still inactive one.
        std::uint32_t stream = size_;
        if (size_ >= k.streams) {
            const Lane &victim =
                lanes_[laneIndex(stack_[k.streams - 1].entry, c)];
            flush(k, victim);
            stream = victim.stream;
        }
        const std::size_t li = laneIndex(entry, c);
        lanes_[li] = {(std::uint32_t{1} << depth_) - 1, 0, 0, stream};
        std::fill_n(&ticks_[li * depth_], depth_, now);
        ++k.engine.streamMisses;
        ++k.engine.allocations;
        k.engine.prefetchesIssued += depth_;
        k.demandCycles += memLatency_;
        k.own += memLatency_;
    }

    // The entry moves (or a new one is pushed) to the top; a full
    // stack drops its bottom entry, whose lanes the new one took.
    const std::uint32_t shifted =
        found ? p : std::min(size_, maxStreams_ - 1);
    std::copy_backward(stack_.begin(), stack_.begin() + shifted,
                       stack_.begin() + shifted + 1);
    if (!found && size_ < maxStreams_)
        ++size_;
    stack_[0] = {mapper_.nextBlock(block), entry, true};
}

// analyze:hot-path
void
StreamStack::hit(Count &k, std::size_t c, std::uint32_t p, std::uint32_t q,
                 BlockAddr block, std::uint64_t now)
{
    const std::size_t li = laneIndex(stack_[p].entry, c);
    Lane &lane = lanes_[li];
    // A duplicate inside the top K: the engine hits the lowest-index
    // stream among the matches, the stack the most recent one.
    for (std::uint32_t d = q; d < std::min(k.streams, size_); ++d) {
        if (stack_[d].head == block && stack_[d].valid &&
            lanes_[laneIndex(stack_[d].entry, c)].stream < lane.stream) {
            diverge(k);
            return;
        }
    }
    SBSIM_AUDIT((lane.valid >> lane.head) & 1u,
                "stream-stack head valid in the stack but not for ",
                k.streams, " streams");
    std::uint64_t &tick = ticks_[li * depth_ + lane.head];
    const std::uint64_t elapsed = now - tick;
    std::uint64_t stall = 0;
    if (elapsed < memLatency_) {
        stall = memLatency_ - elapsed;
        ++k.hitsPending;
    } else {
        ++k.hitsReady;
    }
    // Consume the head and refill its slot as the new tail.
    tick = now;
    lane.head = wrap(lane.head + 1);
    ++lane.hitRun;
    if (!((lane.valid >> lane.head) & 1u)) {
        diverge(k);
        return;
    }
    ++k.engine.hits;
    ++k.engine.prefetchesIssued;
    k.streamHitCycles += hitCycles_;
    k.stallCycles += stall;
    k.own += hitCycles_ + stall;
}

// analyze:hot-path
void
StreamStack::writeback(BlockAddr block)
{
    for (std::uint32_t d = 0; d < size_; ++d) {
        Top &top = stack_[d];
        // Entry i of a stream holds head + i blocks.
        const std::uint64_t diff = block - top.head;
        if (diff & (mapper_.blockSize() - 1))
            continue;
        const std::uint64_t pos = diff >> mapper_.blockShift();
        if (pos >= depth_)
            continue;
        if (pos == 0)
            top.valid = false;
        for (std::size_t c = 0; c < counts_.size(); ++c) {
            Count &k = counts_[c];
            if (k.diverged || k.streams <= d)
                continue;
            Lane &lane = lanes_[laneIndex(top.entry, c)];
            const std::uint32_t bit = std::uint32_t{1}
                                      << wrap(lane.head +
                                              static_cast<std::uint32_t>(pos));
            if (lane.valid & bit) {
                lane.valid &= ~bit;
                ++k.engine.uselessInvalidated;
            }
        }
    }
}

std::map<std::uint32_t, RunOutput>
StreamStack::finish(const MissTraceSummary &s)
{
    l1HitCycles_ += s.tailL1HitCycles;
    victimHitCycles_ += s.tailVictimHitCycles;
    swPrefetchCycles_ += s.tailSwPrefetchCycles;
    front_ += s.tailL1HitCycles + s.tailVictimHitCycles +
              s.tailSwPrefetchCycles;

    std::map<std::uint32_t, RunOutput> outputs;
    for (std::size_t c = 0; c < counts_.size(); ++c) {
        Count &k = counts_[c];
        if (k.diverged)
            continue;
        const std::uint32_t held = std::min(k.streams, size_);
        std::uint64_t streams_seen = 0;
        for (std::uint32_t d = 0; d < held; ++d) {
            const Lane &lane = lanes_[laneIndex(stack_[d].entry, c)];
            flush(k, lane);
            streams_seen |= std::uint64_t{1} << lane.stream;
        }
        // The top K hold the count's K streams, each once.
        SBSIM_AUDIT(streams_seen == (held == 64 ? ~std::uint64_t{0}
                                                : (std::uint64_t{1} << held) - 1),
                    "stream-stack slots of ", k.streams,
                    " streams are not a permutation of 0..", held, "-1");

        RunCounts counts;
        counts.frontEnd = s.counts;
        counts.streamHitsReady = k.hitsReady;
        counts.streamHitsPending = k.hitsPending;
        counts.cycles = front_ + k.own;
        CycleBreakdown &cb = counts.cycleBreakdown;
        cb.l1Hit = l1HitCycles_;
        cb.victimHit = victimHitCycles_;
        cb.swPrefetchIssue = swPrefetchCycles_;
        cb.streamHit = k.streamHitCycles;
        cb.streamStall = k.stallCycles;
        cb.demandFetch = k.demandCycles;
        counts.engine = k.engine;
        counts.engine.lookups = lookups_;
        SBSIM_AUDIT(counts.engine.hits + counts.engine.streamMisses ==
                        counts.engine.lookups,
                    "stream-stack hits and misses of ", k.streams,
                    " streams do not add up to the lookups");
        SBSIM_AUDIT(cb.total() == counts.cycles, "stream-stack cycle "
                    "breakdown does not account for every cycle of ",
                    k.streams, " streams");
        RunOutput out = reportCounts(counts, k.lengths.sharesPercent());
        out.sampling.timeSampler = s.samplerCounts.value_or(SamplerCounts{});
        outputs.emplace(k.streams, std::move(out));
    }
    return outputs;
}

} // namespace

std::map<std::uint32_t, RunOutput>
runStreamStack(const MissTrace &trace, const MemorySystemConfig &config,
               std::span<const std::uint32_t> counts)
{
    if (counts.empty())
        return {};
    StreamStack stack(config, counts);
    trace.forEach([&stack](const MissRecord &rec) {
        return stack.onRecord(rec);
    });
    return stack.finish(trace.summary());
}

} // namespace sbsim
