#include "stream_set.hh"

#include <algorithm>

#include "util/audit.hh"

namespace sbsim {

StreamSet::StreamSet(std::uint32_t num_streams, std::uint32_t depth,
                     std::uint32_t block_size,
                     StreamReplacement replacement)
    : mapper_(block_size),
      numStreams_(num_streams),
      depth_(depth),
      replacement_(replacement),
      allStreams_(num_streams >= kMaxStreams
                      ? ~std::uint64_t{0}
                      : bit(num_streams) - 1)
{
    SBSIM_ASSERT(num_streams > 0, "need at least one stream");
    SBSIM_ASSERT(num_streams <= kMaxStreams, "at most ", kMaxStreams,
                 " streams, got ", num_streams);
    SBSIM_ASSERT(depth > 0, "stream depth must be nonzero");
    SBSIM_ASSERT(depth <= kMaxDepth, "stream depth at most ", kMaxDepth,
                 ", got ", depth);
    reset();
}

void
StreamSet::reset()
{
    active_ = 0;
    headValid_ = 0;
    std::fill_n(heads_, numStreams_, BlockAddr{0});
    std::fill_n(lastUse_, numStreams_, std::uint64_t{0});
    std::fill_n(streams_, numStreams_, Stream{});
    std::fill_n(entries_, numStreams_ * kMaxDepth, Entry{});
    issuedCount_ = 0;
    tick_ = 0;
    nextVictim_ = 0;
    rng_ = Pcg32{kRandomSeed};
}

int
StreamSet::entryPositionBlock(std::uint32_t s, BlockAddr block) const
{
    const Stream &st = streams_[s];
    for (std::uint32_t k = 0; k < depth_; ++k) {
        std::uint32_t slot = wrap(st.head + k);
        if (((st.valid >> slot) & 1u) && fifo(s)[slot].block == block)
            return static_cast<int>(k);
    }
    return -1;
}

StreamLookup
StreamSet::lookupAssociative(BlockAddr block, std::uint64_t now)
{
    for (std::uint32_t s = 0; s < numStreams_; ++s) {
        int pos = entryPositionBlock(s, block);
        if (pos >= 0)
            return consume(s, static_cast<std::uint32_t>(pos), now);
    }
    return {};
}

void
StreamSet::auditState() const
{
    SBSIM_ASSERT((active_ & ~allStreams_) == 0 &&
                     (headValid_ & ~active_) == 0,
                 "stream masks outside the active bank");
    SBSIM_ASSERT(nextVictim_ < numStreams_, "FIFO rotation pointer ",
                 nextVictim_, " out of range");
    SBSIM_ASSERT(issuedCount_ <= depth_, "issued ", issuedCount_,
                 " prefetches from a depth-", depth_, " FIFO");
    const std::uint32_t slots = (std::uint32_t{1} << depth_) - 1;
    for (std::uint32_t s = 0; s < numStreams_; ++s) {
        const Stream &st = streams_[s];
        SBSIM_ASSERT(st.head < depth_, "stream ", s, " head ", st.head,
                     " out of range");
        SBSIM_ASSERT((st.valid & ~slots) == 0, "stream ", s,
                     " has valid slots beyond depth ", depth_);
        if (!active(s)) {
            SBSIM_ASSERT(st.valid == 0 && st.hitRun == 0,
                         "inactive stream ", s, " holds entries");
            continue;
        }
        // The head array must mirror the entries: a stream's head bit
        // is set exactly when its head slot is valid, and then holds
        // that slot's block.
        bool head_valid = (st.valid >> st.head) & 1u;
        SBSIM_ASSERT(((headValid_ >> s) & 1u) == head_valid, "stream ", s,
                     " head bit disagrees with its head entry");
        SBSIM_ASSERT(!head_valid || heads_[s] == fifo(s)[st.head].block,
                     "stream ", s, " head array holds ", heads_[s],
                     ", head entry ", fifo(s)[st.head].block);
        for (std::uint32_t i = 0; i < depth_; ++i) {
            if (!((st.valid >> i) & 1u))
                continue;
            for (std::uint32_t j = i + 1; j < depth_; ++j) {
                SBSIM_ASSERT(!((st.valid >> j) & 1u) ||
                                 fifo(s)[i].block != fifo(s)[j].block,
                             "duplicate block ", fifo(s)[i].block,
                             " in stream ", s, " slots ", i, "/", j);
            }
        }
    }
    // lastUse_ is the LRU stack as timestamps: values may not run
    // ahead of the clock and nonzero values must be distinct, or
    // victimStream() would reallocate an arbitrary stream.
    for (std::uint32_t i = 0; i < numStreams_; ++i) {
        SBSIM_ASSERT(lastUse_[i] <= tick_, "stream ", i,
                     " timestamp ", lastUse_[i], " ahead of clock ",
                     tick_);
        if (lastUse_[i] == 0)
            continue;
        for (std::uint32_t j = i + 1; j < numStreams_; ++j) {
            SBSIM_ASSERT(lastUse_[j] != lastUse_[i],
                         "duplicate stream timestamps on ", i, "/", j);
        }
    }
}

} // namespace sbsim
