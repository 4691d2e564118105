#include "l2_study.hh"

#include <algorithm>
#include <set>

#include "util/logging.hh"

namespace sbsim {

SecondaryCacheStudy::SecondaryCacheStudy(
    const std::vector<CacheConfig> &configs, unsigned sample_log2)
{
    SBSIM_ASSERT(!configs.empty(), "L2 study needs candidates");
    caches_.reserve(configs.size());
    for (const auto &c : configs)
        caches_.emplace_back(c, sample_log2, /*residue=*/0,
                             /*sample_bit_shift=*/7);
}

void
SecondaryCacheStudy::onL1Miss(const MemAccess &access)
{
    ++missesSeen_;
    // Every candidate shares one sampling function (the constructor
    // hands each the same log2 / residue / shift), so the slice test
    // runs once per miss instead of once per candidate — with 1/2^3
    // sampling, 7/8 of misses skip the candidate loop entirely.
    if (!caches_.front().accepts(access.addr))
        return;
    for (auto &cache : caches_)
        cache.access(access);
}

std::vector<L2Result>
SecondaryCacheStudy::results() const
{
    std::vector<L2Result> out;
    out.reserve(caches_.size());
    for (const auto &cache : caches_) {
        out.push_back({cache.fullConfig(), cache.hitRatePercent(),
                       cache.sampledAccesses()});
    }
    return out;
}

L2StudyDriver::L2StudyDriver(const SplitCacheConfig &l1_config,
                             const std::vector<CacheConfig> &l2_configs,
                             unsigned sample_log2)
    : l1_(l1_config), study_(l2_configs, sample_log2)
{}

void
L2StudyDriver::processAccess(const MemAccess &access)
{
    CacheResult result = l1_.access(access);
    if (!result.hit)
        study_.onL1Miss(access);
}

std::uint64_t
L2StudyDriver::run(TraceSource &src)
{
    std::uint64_t n = 0;
    MemAccess a;
    while (src.next(a)) {
        processAccess(a);
        ++n;
    }
    return n;
}

AnalyticCacheStudy::AnalyticCacheStudy(
    const std::vector<CacheConfig> &configs)
    : configs_(configs)
{
    SBSIM_ASSERT(!configs_.empty(), "L2 study needs candidates");
    // One profiler per block size, over that block size's candidates:
    // makeL2Profiler registers every candidate an exact conflict
    // class can price, so results() prices it with no modeling
    // assumption.
    for (const CacheConfig &c : configs_) {
        c.validate();
        bool seen = false;
        for (const auto &p : profilers_)
            seen = seen || p->blockSize() == c.blockSize;
        if (seen)
            continue;
        std::vector<CacheConfig> same_block;
        for (const CacheConfig &other : configs_) {
            if (other.blockSize == c.blockSize)
                same_block.push_back(other);
        }
        profilers_.push_back(makeL2Profiler(same_block));
    }
}

void
AnalyticCacheStudy::onL1Miss(const MemAccess &access)
{
    ++missesSeen_;
    for (const auto &p : profilers_)
        p->onAccess(access.addr);
}

const ReuseProfiler &
AnalyticCacheStudy::profileFor(unsigned block_size) const
{
    for (const auto &p : profilers_) {
        if (p->blockSize() == block_size)
            return *p;
    }
    SBSIM_FATAL("no profile at block size ", block_size);
    return *profilers_.front(); // Unreachable.
}

std::vector<L2Result>
AnalyticCacheStudy::results() const
{
    std::vector<L2Result> out;
    out.reserve(configs_.size());
    for (const CacheConfig &c : configs_) {
        AnalyticL2Model model(profileFor(c.blockSize));
        out.push_back({c, model.predictLocalHitRatePercent(c),
                       model.profile().references()});
    }
    return out;
}

namespace {

/**
 * Feed every DEMAND record of @p trace to @p study. A victim buffer
 * would filter misses out of the stream and software prefetches would
 * perturb L1 contents relative to the driver's bare L1 — either would
 * make the recorded stream diverge from what L2StudyDriver presents.
 */
template <typename Study>
std::uint64_t
feedDemandMisses(Study &study, const MissTrace &trace)
{
    SBSIM_ASSERT(trace.summary().counts.victimHits == 0 &&
                     trace.summary().counts.swPrefetches == 0,
                 "miss trace incompatible with the bare-L1 study front "
                 "end");
    std::uint64_t n = 0;
    trace.forEach([&](const MissRecord &rec) {
        if (rec.kind != MissRecord::Kind::DEMAND)
            return;
        study.onL1Miss(rec.access);
        ++n;
    });
    return n;
}

} // namespace

std::uint64_t
replayMissesInto(SecondaryCacheStudy &study, const MissTrace &trace)
{
    return feedDemandMisses(study, trace);
}

std::uint64_t
profileMissesInto(AnalyticCacheStudy &study, const MissTrace &trace)
{
    return feedDemandMisses(study, trace);
}

std::vector<CacheConfig>
table4CandidateConfigs()
{
    std::vector<CacheConfig> out;
    const std::uint64_t kb = 1024;
    for (std::uint64_t size : {64 * kb, 128 * kb, 256 * kb, 512 * kb,
                               1024 * kb, 2048 * kb, 4096 * kb}) {
        for (std::uint32_t assoc : {1u, 2u, 4u}) {
            for (std::uint32_t block : {64u, 128u}) {
                CacheConfig c;
                c.sizeBytes = size;
                c.assoc = assoc;
                c.blockSize = block;
                c.replacement = ReplacementKind::LRU;
                out.push_back(c);
            }
        }
    }
    return out;
}

std::optional<std::uint64_t>
minSizeReaching(const std::vector<L2Result> &results, double target)
{
    std::set<std::uint64_t> sizes;
    for (const auto &r : results)
        sizes.insert(r.config.sizeBytes);
    for (std::uint64_t size : sizes) {
        if (bestHitRateAtSize(results, size) >= target)
            return size;
    }
    return std::nullopt;
}

double
bestHitRateAtSize(const std::vector<L2Result> &results,
                  std::uint64_t size_bytes)
{
    double best = 0;
    for (const auto &r : results) {
        if (r.config.sizeBytes == size_bytes)
            best = std::max(best, r.localHitRatePercent);
    }
    return best;
}

} // namespace sbsim
