#include "cache.hh"

#include <algorithm>

#include "util/audit.hh"
#include "util/bitutil.hh"
#include "util/logging.hh"

namespace sbsim {

void
CacheConfig::validate() const
{
    if (!isPowerOf2(blockSize))
        SBSIM_FATAL("cache block size must be a power of two: ", blockSize);
    if (assoc == 0)
        SBSIM_FATAL("cache associativity must be nonzero");
    if (sizeBytes == 0 ||
        sizeBytes % (static_cast<std::uint64_t>(assoc) * blockSize) != 0) {
        SBSIM_FATAL("cache size ", sizeBytes,
                    " is not a multiple of assoc*blockSize");
    }
    if (!isPowerOf2(numSets()))
        SBSIM_FATAL("cache set count must be a power of two: ", numSets());
}

namespace {

/** Validate before any member computes with the parameters. */
const CacheConfig &
validated(const CacheConfig &config)
{
    config.validate();
    return config;
}

} // namespace

Cache::Cache(const CacheConfig &config, std::string name)
    : config_(validated(config)),
      name_(std::move(name)),
      mapper_(config.blockSize),
      numSets_(config.numSets()),
      setShift_(floorLog2(config.blockSize)),
      tagShift_(setShift_ + floorLog2(config.numSets())),
      policyTracksUse_(config.replacement == ReplacementKind::LRU &&
                       config.assoc > 1),
      policyTracksFill_(config.replacement != ReplacementKind::RANDOM &&
                        config.assoc > 1),
      tags_(static_cast<std::size_t>(config.numSets()) * config.assoc,
            kNoTag),
      dirty_(tags_.size(), 0),
      mruWay_(config.numSets(), 0),
      policy_(makeReplacementPolicy(config.replacement, config.numSets(),
                                    config.assoc, config.seed))
{}

std::uint32_t
Cache::setIndex(Addr a) const
{
    return static_cast<std::uint32_t>((a >> setShift_) & (numSets_ - 1));
}

Addr
Cache::tagOf(Addr a) const
{
    return a >> tagShift_;
}

std::size_t
Cache::slot(std::uint32_t set, std::uint32_t way) const
{
    return static_cast<std::size_t>(set) * config_.assoc + way;
}

int
Cache::findWay(std::uint32_t set, Addr tag) const
{
    if (tag == kNoTag) {
        // Only 1-byte blocks in one set get here (see kNoTag).
        return onesWay_ == kNoWay ? -1 : static_cast<int>(onesWay_);
    }
    // Invalid ways hold kNoTag, which no other tag equals, so one
    // compare per way decides. Locality makes the most recently
    // touched way the likely hit; probing it first makes the common
    // case one comparison (re-probing it in the scan cannot match).
    const Addr *ways = &tags_[slot(set, 0)];
    std::uint32_t mru = mruWay_[set];
    if (ways[mru] == tag)
        return static_cast<int>(mru);
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (ways[w] == tag)
            return static_cast<int>(w);
    }
    return -1;
}

void
Cache::auditSet(std::uint32_t set) const
{
    SBSIM_ASSERT(set < numSets_, "audit of set ", set, " of ", numSets_);
    SBSIM_ASSERT(mruWay_[set] < config_.assoc,
                 "MRU hint ", mruWay_[set], " out of range in set ", set);
    SBSIM_ASSERT(onesWay_ == kNoWay ||
                     (tagShift_ == 0 && onesWay_ < config_.assoc &&
                      tags_[onesWay_] == kNoTag),
                 "all-ones tag recorded in way ", onesWay_,
                 " with tag shift ", tagShift_);
    // Distinct valid tags: a duplicate means findWay's MRU-first probe
    // order could return a different way than a linear scan, breaking
    // hit/victim determinism. (Only onesWay_ may validly hold kNoTag.)
    const std::size_t base = slot(set, 0);
    for (std::uint32_t a = 0; a < config_.assoc; ++a) {
        if (tags_[base + a] == kNoTag)
            continue;
        for (std::uint32_t b = a + 1; b < config_.assoc; ++b) {
            SBSIM_ASSERT(tags_[base + a] != tags_[base + b],
                         "duplicate tag in set ", set, " ways ", a, "/",
                         b);
        }
    }
    policy_->auditSet(set);
}

std::uint32_t
Cache::evictFrom(std::uint32_t set, CacheResult &result)
{
    const std::size_t base = slot(set, 0);
    // Prefer an invalid way. (onesWay_ is only ever set in a
    // single-set cache, so comparing the way alone is enough.)
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (tags_[base + w] == kNoTag && w != onesWay_)
            return w;
    }
    // Direct-mapped: the only way is the victim; skip the policy.
    std::uint32_t w = config_.assoc == 1 ? 0u : policy_->victim(set);
    SBSIM_ASSERT(w < config_.assoc, "policy returned way ", w);
    const Addr tag = tags_[base + w];
    Addr victim_base = (tag << tagShift_) |
                       (static_cast<Addr>(set) << setShift_);
    // The reconstruction must round-trip: a wrong tagShift_ would
    // write back / invalidate a block the victim never was.
    SBSIM_AUDIT(setIndex(victim_base) == set && tagOf(victim_base) == tag,
                "victim address ", victim_base,
                " does not map back to set ", set);
    result.victimEvicted = true;
    result.victimAddr = victim_base;
    if (dirty_[base + w] && config_.writeBack) {
        result.writeback = true;
        result.writebackAddr = victim_base;
        ++writebacks_;
    }
    tags_[base + w] = kNoTag;
    if (w == onesWay_)
        onesWay_ = kNoWay;
    return w;
}

void
Cache::install(std::uint32_t set, std::uint32_t way, Addr tag, bool dirty)
{
    const std::size_t s = slot(set, way);
    tags_[s] = tag;
    dirty_[s] = dirty;
    if (tag == kNoTag)
        onesWay_ = way;
    mruWay_[set] = way;
    if (policyTracksFill_)
        policy_->fill(set, way);
}

// analyze:hot-path
CacheResult
Cache::access(const MemAccess &access)
{
    ++accesses_;
    CacheResult result;
    Addr a = access.addr;
    std::uint32_t set = setIndex(a);
    Addr tag = tagOf(a);

    int way = findWay(set, tag);
    if (way >= 0) {
        result.hit = true;
        ++hits_;
        mruWay_[set] = static_cast<std::uint32_t>(way);
        if (policyTracksUse_)
            policy_->touch(set, static_cast<std::uint32_t>(way));
        if (access.isWrite()) {
            if (config_.writeBack)
                dirty_[slot(set, static_cast<std::uint32_t>(way))] = 1;
            // Write-through would send the word to memory; traffic for
            // that mode is accounted by the caller.
        }
#ifdef STREAMSIM_CHECKED
        auditSet(set);
#endif
        return result;
    }

    // Miss.
    if (access.isWrite() && !config_.writeAllocate) {
        // Write-no-allocate: the write goes around the cache.
        return result;
    }

    std::uint32_t fill_way = evictFrom(set, result);
    install(set, fill_way, tag, access.isWrite() && config_.writeBack);
    result.filled = true;
#ifdef STREAMSIM_CHECKED
    auditSet(set);
#endif
    return result;
}

// analyze:hot-path
CacheResult
Cache::fill(Addr a, bool dirty)
{
    CacheResult result;
    std::uint32_t set = setIndex(a);
    Addr tag = tagOf(a);

    int way = findWay(set, tag);
    if (way >= 0) {
        // Already present: just update dirty state.
        if (dirty)
            dirty_[slot(set, static_cast<std::uint32_t>(way))] = 1;
        mruWay_[set] = static_cast<std::uint32_t>(way);
        result.hit = true;
        return result;
    }

    std::uint32_t fill_way = evictFrom(set, result);
    install(set, fill_way, tag, dirty);
    result.filled = true;
#ifdef STREAMSIM_CHECKED
    auditSet(set);
#endif
    return result;
}

bool
Cache::probe(Addr a) const
{
    return findWay(setIndex(a), tagOf(a)) >= 0;
}

bool
Cache::invalidate(Addr a)
{
    std::uint32_t set = setIndex(a);
    int way = findWay(set, tagOf(a));
    if (way < 0)
        return false;
    tags_[slot(set, static_cast<std::uint32_t>(way))] = kNoTag;
    if (static_cast<std::uint32_t>(way) == onesWay_)
        onesWay_ = kNoWay;
    return true;
}

std::uint64_t
Cache::residentBlocks() const
{
    std::uint64_t n = onesWay_ == kNoWay ? 0 : 1;
    for (Addr tag : tags_)
        if (tag != kNoTag)
            ++n;
    return n;
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kNoTag);
    std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
    onesWay_ = kNoWay;
    std::fill(mruWay_.begin(), mruWay_.end(), 0u);
    policy_->reset();
    accesses_.reset();
    hits_.reset();
    writebacks_.reset();
}

StatGroup
Cache::stats() const
{
    StatGroup g(name_);
    g.add("accesses", static_cast<double>(accesses()));
    g.add("hits", static_cast<double>(hits()));
    g.add("misses", static_cast<double>(misses()));
    g.add("writebacks", static_cast<double>(writebacks()));
    g.add("miss_rate_pct", missRatePercent());
    return g;
}

} // namespace sbsim
