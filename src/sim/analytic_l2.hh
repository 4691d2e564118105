/**
 * @file
 * Closed-form secondary-cache evaluator over a reuse-distance
 * histogram: one ReuseProfiler pass over a miss stream prices *every*
 * (size, associativity) point of the Table 4 grid without simulating
 * a single cache.
 *
 * Model (see docs/INTERNALS.md "Analytical L2 modeling"):
 *  - A reference with reuse distance D hits a fully-associative LRU
 *    cache of C blocks iff D < C (the LRU inclusion property; exact).
 *  - For S > 1 sets whose set count the profiler tracked as a
 *    conflict class (trackGeometry), the per-set stack-depth counts
 *    give the A-way hit count *exactly*: sum of hitsAtDepth[0..A-1].
 *    This is what makes the engine track simulation on power-of-two
 *    strided workloads, whose set conflicts are deterministic.
 *  - For untracked S > 1 geometries, the D intervening distinct
 *    blocks fall back to a uniform-mapping model: hit probability
 *    P[Binomial(D, 1/S) <= A-1] (the classic independent-reference
 *    conflict approximation). D < A always hits regardless of mapping
 *    and is treated exactly.
 *  - Cold references (first touch) always miss.
 * In the fallback, the per-bucket representative is the bucket
 * midpoint, clamped to the largest distance actually observed; the
 * histogram's <= 3.1% relative bucket width bounds the
 * discretisation error.
 *
 * The model kind (a RunSpec's l2_model, the CLI's --l2-model)
 * selecting between the simulated battery, this evaluator, or both,
 * also lives here.
 */

#ifndef STREAMSIM_SIM_ANALYTIC_L2_HH
#define STREAMSIM_SIM_ANALYTIC_L2_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "sim/experiment.hh"
#include "trace/reuse_profile.hh"

namespace sbsim {

/** How to price secondary-cache hit rates. */
enum class L2ModelKind : std::uint8_t
{
    SIMULATED, ///< Set-sampled cache simulation (the default).
    ANALYTIC,  ///< Closed form from one reuse-distance profile.
    BOTH,      ///< Simulate *and* predict; export the absolute error.
};

/** Parse "simulated" / "analytic" / "both"; nullopt otherwise. */
std::optional<L2ModelKind> parseL2Model(const std::string &s);

const char *toString(L2ModelKind kind);

/** Prices any cache geometry against one finished profile. */
class AnalyticL2Model
{
  public:
    /** @param profile Finished profile; must outlive the model. */
    explicit AnalyticL2Model(const ReuseProfiler &profile)
        : profile_(profile)
    {}

    /**
     * Predicted miss ratio (%) of @p config over the profiled stream
     * (cold + conflict/capacity misses; 0 when nothing was profiled).
     * @pre config.blockSize == profile.blockSize() (asserted) — the
     * distances were measured at that granularity.
     */
    double predictMissRatioPercent(const CacheConfig &config) const;

    /** 100 - predictMissRatioPercent: the L2Result convention. */
    double predictLocalHitRatePercent(const CacheConfig &config) const;

    /** Expected (fractional) number of hits over the whole stream. */
    double expectedHits(const CacheConfig &config) const;

    const ReuseProfiler &profile() const { return profile_; }

  private:
    const ReuseProfiler &profile_;
};

/**
 * A profiler for the demand stream of the L2s @p l2s, which share one
 * block size. Each geometry an exact conflict class can price is
 * registered before the pass; when that covers every geometry, the
 * distance histogram is skipped, since the classes answer every
 * query.
 */
std::unique_ptr<ReuseProfiler>
makeL2Profiler(const std::vector<CacheConfig> &l2s);

/**
 * Fill @p out's l2Analytic section from @p profile for a run of
 * @p config that asked for the @p kind model. BOTH also compares the
 * prediction with the L2 @p out simulated.
 */
void reportAnalyticL2(RunOutput &out, const ReuseProfiler &profile,
                      L2ModelKind kind, const MemorySystemConfig &config);

} // namespace sbsim

#endif // STREAMSIM_SIM_ANALYTIC_L2_HH
