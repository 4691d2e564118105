/**
 * @file
 * Set-associative cache model. Data values are not stored — this is a
 * trace-driven hit/miss simulator — but tags, valid and dirty state
 * are exact, including write-back / write-allocate behaviour and the
 * write-back traffic that must invalidate stale stream-buffer copies
 * (Section 3 of the paper).
 */

#ifndef STREAMSIM_CACHE_CACHE_HH
#define STREAMSIM_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "mem/block.hh"
#include "mem/types.hh"
#include "util/stats.hh"

namespace sbsim {

/** Static configuration of one cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t blockSize = 32;
    ReplacementKind replacement = ReplacementKind::RANDOM;
    bool writeAllocate = true;
    bool writeBack = true;
    std::uint64_t seed = 1; ///< For random replacement.

    std::uint32_t
    numSets() const
    {
        return static_cast<std::uint32_t>(
            sizeBytes / (static_cast<std::uint64_t>(assoc) * blockSize));
    }

    /** Fatal on inconsistent parameters. */
    void validate() const;
};

/** Outcome of one cache access or fill. */
struct CacheResult
{
    bool hit = false;
    /** A dirty victim was evicted and must go to memory. */
    bool writeback = false;
    BlockAddr writebackAddr = 0;
    /** A (clean or dirty) valid victim was evicted. */
    bool victimEvicted = false;
    BlockAddr victimAddr = 0;
    /** The missing block was filled into the cache. */
    bool filled = false;
};

/**
 * A single set-associative cache with exact tag/valid/dirty state.
 *
 * Usage model: call access() per reference. On a miss the block is
 * brought in according to the allocation policy; where the fill data
 * comes from (memory fast path or a stream buffer) is decided by the
 * caller, which sees the miss in the returned CacheResult.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config, std::string name = "cache");

    const CacheConfig &config() const { return config_; }
    const std::string &name() const { return name_; }
    const BlockMapper &mapper() const { return mapper_; }

    /** Simulate one reference. */
    CacheResult access(const MemAccess &access);

    /**
     * Insert the block containing @p a, evicting as needed. Used both
     * internally for demand fills and externally when a stream buffer
     * supplies a block.
     */
    CacheResult fill(Addr a, bool dirty = false);

    /** True when the block containing @p a is present. */
    bool probe(Addr a) const;

    /** Drop the block containing @p a; @return true if it was present. */
    bool invalidate(Addr a);

    /** Number of valid blocks currently resident. */
    std::uint64_t residentBlocks() const;

    void reset();

    // Statistics.
    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return accesses() - hits(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    double missRatePercent() const { return percent(misses(), accesses()); }
    double
    localHitRatePercent() const
    {
        return percent(hits(), accesses());
    }

    /** Export counters for reporting. */
    StatGroup stats() const;

  private:
    /**
     * Tag word of an invalid way. A tag is the address shifted right
     * by tagShift_, so it can only be all ones when tagShift_ == 0:
     * 1-byte blocks in a single set. There onesWay_ marks the way
     * that holds that block.
     */
    static constexpr Addr kNoTag = ~Addr{0};
    /** onesWay_ when no way holds the all-ones tag. */
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

    std::uint32_t setIndex(Addr a) const;
    Addr tagOf(Addr a) const;
    std::size_t slot(std::uint32_t set, std::uint32_t way) const;
    int findWay(std::uint32_t set, Addr tag) const;

    /** Make @p way of @p set hold @p tag; the way must be free. */
    void install(std::uint32_t set, std::uint32_t way, Addr tag,
                 bool dirty);

    /** Evict into @p result and return the way that became free. */
    std::uint32_t evictFrom(std::uint32_t set, CacheResult &result);

    /**
     * Structural invariant walk over @p set (checked builds only; see
     * util/audit.hh): MRU hint in range, no duplicate valid tags, and
     * the replacement policy's own per-set state consistent.
     */
    void auditSet(std::uint32_t set) const;

    CacheConfig config_;
    std::string name_;
    BlockMapper mapper_;
    std::uint32_t numSets_;
    unsigned setShift_;
    /** Precomputed setShift_ + log2(numSets_): tag <-> address. */
    unsigned tagShift_;
    /** Which policy notifications carry information: RANDOM ignores
     *  both touch() and fill(), FIFO ignores touch(), and for a
     *  direct-mapped cache no bookkeeping matters at all (the victim
     *  is always way 0). The hot paths skip the dead virtual calls. */
    bool policyTracksUse_;
    bool policyTracksFill_;
    /** One tag word per way, sets * assoc flat, kNoTag when the way
     *  is invalid (see onesWay_). A probe reads 8 bytes per way. */
    std::vector<Addr> tags_;
    /** Dirty flag per way, beside the tags so probes never load it. */
    std::vector<std::uint8_t> dirty_;
    /** The way holding the all-ones tag, or kNoWay (see kNoTag). */
    std::uint32_t onesWay_ = kNoWay;
    /** Last way hit or filled per set; probed first by findWay. */
    std::vector<std::uint32_t> mruWay_;
    std::unique_ptr<ReplacementPolicy> policy_;

    Counter accesses_;
    Counter hits_;
    Counter writebacks_;
};

} // namespace sbsim

#endif // STREAMSIM_CACHE_CACHE_HH
