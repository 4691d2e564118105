/**
 * @file
 * The bank of stream buffers (Section 3 of the paper). Each stream is
 * a FIFO of prefetched cache-block tags with an adder that generates
 * the next prefetch address (Jouppi [10], Figure 2). The original
 * design uses an incrementer (unit stride); per Section 7 it is
 * generalized to an adder and a stride field so a stream can follow
 * constant non-unit strides. A primary-cache miss address is compared
 * with the head of every stream; on a hit the block moves to the
 * primary cache and the stream prefetches one replacement block, and
 * on allocation a victim stream is flushed and reset.
 *
 * This is a trace-driven model: block *data* is not stored, only the
 * tags and valid bits, plus the tick each prefetch was issued so the
 * optional timing model can tell whether the data would have returned
 * from memory by the time it is requested (the Section 8 caveat).
 *
 * All state lives inline at a fixed capacity (kMaxStreams streams of
 * up to kMaxDepth entries), so the per-miss path never allocates. The
 * head match scans one contiguous array of head blocks, the software
 * form of the one comparator per stream, and every prefetch an
 * operation issues is written into a fixed buffer read back through
 * issued(). docs/INTERNALS.md ("Stream engine layout") has the full
 * picture; the hot operations are defined in this header so the
 * prefetch engine inlines them.
 */

#ifndef STREAMSIM_STREAM_STREAM_SET_HH
#define STREAMSIM_STREAM_STREAM_SET_HH

#include <bit>
#include <cstdint>
#include <span>

#include "mem/block.hh"
#include "mem/types.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace sbsim {

/**
 * How the stream to reallocate on a stream miss is chosen. The paper
 * assumes LRU (Section 3); FIFO (round-robin) and random are provided
 * for the ablation study.
 */
enum class StreamReplacement : std::uint8_t
{
    LRU,
    FIFO,
    RANDOM,
};

/** Short text name for a stream replacement kind. */
inline const char *
toString(StreamReplacement k)
{
    switch (k) {
      case StreamReplacement::LRU: return "lru";
      case StreamReplacement::FIFO: return "fifo";
      case StreamReplacement::RANDOM: return "random";
    }
    return "?";
}

/** Result of a stream-set lookup. */
struct StreamLookup
{
    bool hit = false;
    std::uint32_t stream = 0;     ///< Which stream hit.
    std::uint64_t issueTick = 0;  ///< When the hit block's prefetch
                                  ///< was issued (timing model).
    /** Entries bypassed and discarded ahead of an associative hit. */
    std::uint32_t skipped = 0;
};

/** What flushing a stream (reallocation or drain) discarded. */
struct StreamFlush
{
    std::uint32_t uselessPrefetches = 0; ///< Unconsumed entries discarded.
    std::uint32_t hitRun = 0;            ///< Consecutive hits this stream
                                         ///< serviced since allocation.
    bool wasActive = false;
};

/** Multi-way stream buffers with LRU (or FIFO/random) reallocation. */
class StreamSet
{
  public:
    /** Most streams one set holds (one bit each in a 64-bit mask). */
    static constexpr std::uint32_t kMaxStreams = 64;
    /** Most FIFO entries one stream holds. */
    static constexpr std::uint32_t kMaxDepth = 16;

    /**
     * @param num_streams Parallel streams, 1..kMaxStreams (paper: up
     *        to 10).
     * @param depth Entries per stream, 1..kMaxDepth (paper: 2).
     * @param block_size Cache block size in bytes.
     * @param replacement Victim choice on reallocation (paper: LRU).
     */
    StreamSet(std::uint32_t num_streams, std::uint32_t depth,
              std::uint32_t block_size,
              StreamReplacement replacement = StreamReplacement::LRU);

    std::uint32_t numStreams() const { return numStreams_; }

    /**
     * Compare @p a against every stream head; on a hit, consume the
     * head and prefetch one replacement block. The lowest-index
     * matching stream wins and becomes most recently used.
     * @param associative Also match non-head entries (Jouppi's
     *        quasi-sequential variant), discarding the bypassed ones
     *        and refilling the FIFO to full depth.
     */
    StreamLookup lookup(Addr a, std::uint64_t now,
                        bool associative = false);

    /**
     * Flush the victim stream (the first inactive one, else the
     * replacement policy's choice) and restart it at @p miss_addr +
     * @p stride_bytes, prefetching a full FIFO. The new stream becomes
     * most recently used.
     * @param flushed_out What the flush discarded.
     * @return the stream that was reallocated.
     */
    std::uint32_t allocate(Addr miss_addr, std::int64_t stride_bytes,
                           std::uint64_t now, StreamFlush &flushed_out);

    /** Blocks prefetched by the most recent lookup() or allocate(), in
     *  issue order (empty after a lookup miss). Pairwise distinct. */
    std::span<const BlockAddr>
    issued() const
    {
        return {issued_, issuedCount_};
    }

    /**
     * Invalidate stale copies of @p block in every stream (a
     * write-back passing by on its way to memory). Invalidated entries
     * were wasted bandwidth; a stream whose head is invalid never hits
     * again under head-only lookup until it is reallocated.
     * @return number of entries invalidated.
     */
    std::uint32_t invalidate(BlockAddr block);

    /** Flush stream @p stream without reallocating it (end of
     *  simulation). */
    StreamFlush drain(std::uint32_t stream);

    /** Restore the constructed state: every stream inactive, the LRU
     *  clock, FIFO rotation pointer and random generator rewound. */
    void reset();

    /** Lowest-index stream whose valid head holds the block of @p a,
     *  or -1. Does not consume. */
    int
    matchHead(Addr a) const
    {
        return matchHeadBlock(mapper_.blockBase(a));
    }

    /** FIFO position (0 = head) of the valid entry of @p stream that
     *  holds the block of @p a, or -1. Does not consume. */
    int
    entryPosition(std::uint32_t stream, Addr a) const
    {
        return entryPositionBlock(stream, mapper_.blockBase(a));
    }

    bool active(std::uint32_t stream) const { return (active_ >> stream) & 1u; }
    std::int64_t stride(std::uint32_t stream) const { return streams_[stream].stride; }

    /** Consecutive hits @p stream serviced since its allocation. */
    std::uint32_t hitRun(std::uint32_t stream) const { return streams_[stream].hitRun; }

    /** Set bits of a slot mask. std::popcount is a library call on
     *  the baseline x86-64 target, and every allocation flushes a
     *  stream: drain() here, once per stream count in the
     *  stream-stack pass (sim/stream_stack.cc). */
    static std::uint32_t
    countSlots(std::uint32_t mask)
    {
        mask -= (mask >> 1) & 0x55555555u;
        mask = (mask & 0x33333333u) + ((mask >> 2) & 0x33333333u);
        return (((mask + (mask >> 4)) & 0x0f0f0f0fu) * 0x01010101u) >> 24;
    }

  private:
    /** One FIFO entry: a prefetched block and when it was issued. */
    struct Entry
    {
        BlockAddr block;
        std::uint64_t issueTick;
    };

    /** Per-stream state besides the FIFO entries. */
    struct Stream
    {
        Addr nextAddr;       ///< Next prefetch (byte) address.
        std::int64_t stride; ///< 0 while inactive.
        BlockAddr lastBlock; ///< Last block queued, for dedup.
        std::uint32_t head;  ///< Slot of the head entry.
        std::uint32_t valid; ///< Bit per slot holding a valid entry.
        std::uint32_t hitRun;
    };

    static std::uint64_t bit(std::uint32_t s) { return std::uint64_t{1} << s; }

    Entry *fifo(std::uint32_t s) { return &entries_[s * kMaxDepth]; }
    const Entry *fifo(std::uint32_t s) const { return &entries_[s * kMaxDepth]; }

    /** Reduce a slot index in [0, 2*depth_) without the modulo (depth
     *  is not a power of two in general, so % would be a divide). */
    std::uint32_t
    wrap(std::uint32_t i) const
    {
        return i >= depth_ ? i - depth_ : i;
    }

    int matchHeadBlock(BlockAddr block) const;
    int entryPositionBlock(std::uint32_t s, BlockAddr block) const;

    /** Consume the entry at FIFO @p position of stream @p s (0 = the
     *  head), discard the bypassed ones ahead of it and refill every
     *  freed slot, so the FIFO is full again. */
    StreamLookup consume(std::uint32_t s, std::uint32_t position,
                         std::uint64_t now);

    /** The associative second pass of lookup() (ablation only). */
    StreamLookup lookupAssociative(BlockAddr block, std::uint64_t now);

    /** Prefetch the next distinct block of stream @p s into @p slot. */
    void issue(std::uint32_t s, std::uint32_t slot, std::uint64_t now);

    /** Re-derive stream @p s's entry of the head array. */
    void refreshHead(std::uint32_t s);

    std::uint32_t victimStream();

    /**
     * Structural invariant walk (checked builds only; see
     * util/audit.hh): slot masks within depth, inactive streams empty,
     * valid entries of a stream pairwise-distinct blocks, the head
     * array equal to the valid head entries, LRU timestamps bounded by
     * the clock and distinct when nonzero, rotation pointer in range.
     */
    void auditState() const;

    BlockMapper mapper_;
    std::uint32_t numStreams_;
    std::uint32_t depth_;
    StreamReplacement replacement_;
    std::uint64_t allStreams_; ///< Low numStreams_ bits set.

    static constexpr std::uint64_t kRandomSeed = 0x5eedf00d;

    // Scalars first and the large entry array last, so the state every
    // miss touches shares cache lines.
    std::uint64_t active_ = 0;     ///< Bit per allocated stream.
    std::uint64_t headValid_ = 0;  ///< Bit per stream whose head is valid.
    std::uint64_t tick_ = 0;       ///< LRU clock.
    std::uint32_t nextVictim_ = 0; ///< FIFO rotation pointer.
    std::uint32_t issuedCount_ = 0;
    Pcg32 rng_{kRandomSeed};       ///< RANDOM victim choice.
    BlockAddr issued_[kMaxDepth] = {};

    /** Head block of each stream; meaningful where headValid_ is set. */
    BlockAddr heads_[kMaxStreams];
    std::uint64_t lastUse_[kMaxStreams]; ///< LRU timestamps.
    Stream streams_[kMaxStreams];
    /** Stream s's circular FIFO is entries_[s*kMaxDepth, +depth_).
     *  Construction and reset() clear the configured streams' rows
     *  only, so a set costs what its configuration uses. */
    Entry entries_[kMaxStreams * kMaxDepth];
};

// ---------------------------------------------------------------------
// Hot operations, defined here so the prefetch engine inlines them.

// analyze:hot-path
inline int
StreamSet::matchHeadBlock(BlockAddr block) const
{
    // The valid bit is tested only where the block matches, so a
    // lookup costs one compare per stream up to the hit.
    for (std::uint32_t i = 0; i < numStreams_; ++i) {
        if (heads_[i] == block && ((headValid_ >> i) & 1u))
            return static_cast<int>(i);
    }
    return -1;
}

// analyze:hot-path
inline void
StreamSet::issue(std::uint32_t s, std::uint32_t slot, std::uint64_t now)
{
    Stream &st = streams_[s];
    // Advance until the prefetch address leaves the last queued block,
    // so every FIFO entry names a distinct cache block even when the
    // stride is smaller than a block.
    BlockAddr block = mapper_.blockBase(st.nextAddr);
    while (block == st.lastBlock) {
        st.nextAddr += static_cast<Addr>(st.stride);
        block = mapper_.blockBase(st.nextAddr);
    }
    st.nextAddr += static_cast<Addr>(st.stride);
    st.lastBlock = block;
    fifo(s)[slot] = {block, now};
    st.valid |= 1u << slot;
    issued_[issuedCount_++] = block;
}

// analyze:hot-path
inline void
StreamSet::refreshHead(std::uint32_t s)
{
    const Stream &st = streams_[s];
    if ((st.valid >> st.head) & 1u) {
        heads_[s] = fifo(s)[st.head].block;
        headValid_ |= bit(s);
    } else {
        headValid_ &= ~bit(s);
    }
}

// analyze:hot-path
inline StreamLookup
StreamSet::consume(std::uint32_t s, std::uint32_t position,
                   std::uint64_t now)
{
    Stream &st = streams_[s];
    const std::uint32_t old_head = st.head;
    StreamLookup result;
    result.hit = true;
    result.stream = s;
    for (std::uint32_t k = 0; k < position; ++k)
        result.skipped += (st.valid >> wrap(old_head + k)) & 1u;
    result.issueTick = fifo(s)[wrap(old_head + position)].issueTick;
    st.head = wrap(old_head + position + 1);
    ++st.hitRun;
    // The freed slots are the new tail, in order: refill them.
    for (std::uint32_t k = 0; k <= position; ++k)
        issue(s, wrap(old_head + k), now);
    refreshHead(s);
    lastUse_[s] = ++tick_;
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
    return result;
}

// analyze:hot-path
inline StreamLookup
StreamSet::lookup(Addr a, std::uint64_t now, bool associative)
{
    issuedCount_ = 0;
    // Convert to a block base once; every stream comparator sees the
    // same block address (one adder feeding all comparators, as in
    // the hardware).
    BlockAddr block = mapper_.blockBase(a);
    int s = matchHeadBlock(block);
    if (s >= 0)
        return consume(static_cast<std::uint32_t>(s), 0, now);
    if (associative)
        return lookupAssociative(block, now);
    return {};
}

// analyze:hot-path
inline std::uint32_t
StreamSet::victimStream()
{
    // Inactive streams are free and picked first under every policy.
    if (std::uint64_t idle = allStreams_ & ~active_)
        return static_cast<std::uint32_t>(std::countr_zero(idle));

    switch (replacement_) {
      case StreamReplacement::FIFO: {
        std::uint32_t v = nextVictim_;
        nextVictim_ = v + 1 == numStreams_ ? 0 : v + 1;
        return v;
      }
      case StreamReplacement::RANDOM:
        return rng_.below(numStreams_);
      case StreamReplacement::LRU:
        break;
    }

    std::uint32_t best = 0;
    std::uint64_t best_use = lastUse_[0];
    for (std::uint32_t i = 1; i < numStreams_; ++i) {
        if (lastUse_[i] < best_use) {
            best = i;
            best_use = lastUse_[i];
        }
    }
    return best;
}

// analyze:hot-path
inline StreamFlush
StreamSet::drain(std::uint32_t s)
{
    Stream &st = streams_[s];
    StreamFlush flushed;
    flushed.uselessPrefetches =
        countSlots(st.valid);
    flushed.hitRun = st.hitRun;
    flushed.wasActive = (active_ >> s) & 1u;
    st.stride = 0;
    st.head = 0;
    st.valid = 0;
    st.hitRun = 0;
    active_ &= ~bit(s);
    headValid_ &= ~bit(s);
    return flushed;
}

// analyze:hot-path
inline std::uint32_t
StreamSet::allocate(Addr miss_addr, std::int64_t stride_bytes,
                    std::uint64_t now, StreamFlush &flushed_out)
{
    SBSIM_ASSERT(stride_bytes != 0, "stream stride must be nonzero");
    issuedCount_ = 0;
    const std::uint32_t s = victimStream();
    flushed_out = drain(s);

    Stream &st = streams_[s];
    st.stride = stride_bytes;
    st.nextAddr = miss_addr + static_cast<Addr>(stride_bytes);
    st.lastBlock = mapper_.blockBase(miss_addr);
    active_ |= bit(s);
    for (std::uint32_t k = 0; k < depth_; ++k)
        issue(s, k, now);
    refreshHead(s);
    lastUse_[s] = ++tick_;
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
    return s;
}

// analyze:hot-path
inline std::uint32_t
StreamSet::invalidate(BlockAddr block)
{
    std::uint32_t n = 0;
    for (std::uint64_t live = active_; live != 0; live &= live - 1) {
        const auto s = static_cast<std::uint32_t>(std::countr_zero(live));
        Stream &st = streams_[s];
        const Entry *entries = fifo(s);
        const std::uint32_t before = n;
        for (std::uint32_t k = 0; k < depth_; ++k) {
            if (entries[k].block == block && ((st.valid >> k) & 1u)) {
                st.valid &= ~(1u << k);
                ++n;
            }
        }
        if (n != before)
            refreshHead(s);
    }
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
    return n;
}

} // namespace sbsim

#endif // STREAMSIM_STREAM_STREAM_SET_HH
