/**
 * @file
 * Secondary-cache comparison study (Section 8 / Table 4). The stream
 * of primary-cache misses is replayed into a battery of candidate L2
 * configurations simultaneously — every size × associativity × block
 * size of interest — each simulated with set sampling so multi-
 * megabyte caches stay cheap. The question answered is the paper's:
 * what is the minimum secondary cache size whose best (local) hit rate
 * matches the stream buffers' hit rate?
 */

#ifndef STREAMSIM_SIM_L2_STUDY_HH
#define STREAMSIM_SIM_L2_STUDY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/set_sampler.hh"
#include "cache/split_cache.hh"
#include "sim/analytic_l2.hh"
#include "trace/miss_trace.hh"
#include "trace/reuse_profile.hh"
#include "trace/source.hh"

namespace sbsim {

/** Hit-rate estimate for one candidate L2 configuration. */
struct L2Result
{
    CacheConfig config;
    double localHitRatePercent = 0;
    std::uint64_t sampledAccesses = 0;
};

/** A battery of sampled secondary caches fed by L1 misses. */
class SecondaryCacheStudy
{
  public:
    /**
     * @param configs Candidate L2 configurations.
     * @param sample_log2 Set-sampling factor: simulate 1/2^k of the
     *        address space (0 = exact).
     */
    explicit SecondaryCacheStudy(const std::vector<CacheConfig> &configs,
                                 unsigned sample_log2 = 3);

    /** Present one L1 miss to every candidate. */
    void onL1Miss(const MemAccess &access);

    /** Hit-rate estimates, in the order configs were given. */
    std::vector<L2Result> results() const;

    std::uint64_t missesSeen() const { return missesSeen_; }

  private:
    std::vector<SampledCache> caches_;
    std::uint64_t missesSeen_ = 0;
};

/**
 * Convenience driver: a paper-default L1 whose misses feed a
 * SecondaryCacheStudy.
 */
class L2StudyDriver
{
  public:
    L2StudyDriver(const SplitCacheConfig &l1_config,
                  const std::vector<CacheConfig> &l2_configs,
                  unsigned sample_log2 = 3);

    void processAccess(const MemAccess &access);
    std::uint64_t run(TraceSource &src);

    const SplitCache &l1() const { return l1_; }
    const SecondaryCacheStudy &study() const { return study_; }

  private:
    SplitCache l1_;
    SecondaryCacheStudy study_;
};

/**
 * The analytic backend of the study (--l2-model=analytic): instead of
 * simulating candidates, one ReuseProfiler per distinct candidate
 * block size observes the miss stream — every candidate geometry
 * registered as an exact conflict class — and results() prices the
 * whole grid via AnalyticL2Model in one pass, no sampling, exact for
 * class-covered candidates. Returns the same L2Result rows
 * as SecondaryCacheStudy, so minSizeReaching and bestHitRateAtSize
 * work unchanged (sampledAccesses reports the profiled miss count: the
 * analytic pass sees every miss).
 */
class AnalyticCacheStudy
{
  public:
    explicit AnalyticCacheStudy(const std::vector<CacheConfig> &configs);

    /** Present one L1 miss to every per-block-size profiler. */
    void onL1Miss(const MemAccess &access);

    /** Predicted hit rates, in the order configs were given. */
    std::vector<L2Result> results() const;

    std::uint64_t missesSeen() const { return missesSeen_; }

    /** The profile measuring distances at @p block_size (asserted). */
    const ReuseProfiler &profileFor(unsigned block_size) const;

  private:
    std::vector<CacheConfig> configs_;
    /** One profiler per distinct candidate block size, in first-seen
     *  order. */
    std::vector<std::unique_ptr<ReuseProfiler>> profilers_;
    std::uint64_t missesSeen_ = 0;
};

/**
 * Feed every recorded DEMAND miss of @p trace to @p study — the
 * miss-stream equivalent of L2StudyDriver::run. Valid only for traces
 * recorded under the driver's front end: a bare split L1 (no victim
 * buffer, no software prefetches — asserted) with identity
 * translation, so the recorded addresses equal the virtual ones the
 * driver would present. @return demand misses fed.
 */
std::uint64_t replayMissesInto(SecondaryCacheStudy &study,
                               const MissTrace &trace);

/**
 * Analytic counterpart of replayMissesInto: profile every DEMAND
 * record of @p trace. Same front-end compatibility requirement
 * (asserted), so differential comparisons consume identical streams.
 * @return demand misses profiled.
 */
std::uint64_t profileMissesInto(AnalyticCacheStudy &study,
                                const MissTrace &trace);

/**
 * The Table 4 candidate grid: sizes 64 KB..4 MB, associativity 1-4,
 * block sizes 64 and 128 bytes, LRU replacement.
 */
std::vector<CacheConfig> table4CandidateConfigs();

/**
 * Smallest cache size whose best configuration reaches @p target
 * percent local hit rate; nullopt when even the largest falls short.
 */
std::optional<std::uint64_t>
minSizeReaching(const std::vector<L2Result> &results, double target);

/** Best hit rate among candidates of exactly @p size_bytes. */
double bestHitRateAtSize(const std::vector<L2Result> &results,
                         std::uint64_t size_bytes);

} // namespace sbsim

#endif // STREAMSIM_SIM_L2_STUDY_HH
