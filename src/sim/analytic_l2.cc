#include "analytic_l2.hh"

#include <algorithm>
#include <cmath>

#include "util/audit.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace sbsim {

std::optional<L2ModelKind>
parseL2Model(const std::string &s)
{
    if (s == "simulated")
        return L2ModelKind::SIMULATED;
    if (s == "analytic")
        return L2ModelKind::ANALYTIC;
    if (s == "both")
        return L2ModelKind::BOTH;
    return std::nullopt;
}

const char *
toString(L2ModelKind kind)
{
    switch (kind) {
      case L2ModelKind::SIMULATED:
        return "simulated";
      case L2ModelKind::ANALYTIC:
        return "analytic";
      case L2ModelKind::BOTH:
        return "both";
    }
    return "simulated";
}

namespace {

/**
 * P[Binomial(distance, 1/sets) <= ways - 1]: the probability that
 * fewer than @p ways of the @p distance intervening distinct blocks
 * landed in the reference's set. Evaluated by the stable term
 * recurrence t_{k+1} = t_k * (D-k)/(k+1) * p/(1-p) starting from
 * t_0 = (1-p)^D computed in log space; underflow of t_0 only happens
 * when the true probability is far below double precision anyway.
 */
double
binomialHitProbability(std::uint64_t distance, std::uint64_t sets,
                       std::uint32_t ways)
{
    if (distance < ways)
        return 1.0;
    double d = static_cast<double>(distance);
    double p = 1.0 / static_cast<double>(sets);
    double odds = p / (1.0 - p);
    double term = std::exp(d * std::log1p(-p));
    double sum = term;
    for (std::uint32_t k = 1; k < ways; ++k) {
        term *= (d - static_cast<double>(k - 1)) /
                static_cast<double>(k) * odds;
        sum = sum + term;
    }
    if (sum > 1.0)
        return 1.0;
    if (sum < 0.0)
        return 0.0;
    return sum;
}

} // namespace

double
AnalyticL2Model::expectedHits(const CacheConfig &config) const
{
    SBSIM_ASSERT(config.blockSize == profile_.blockSize(),
                 "analytic L2 model: cache block size ",
                 config.blockSize,
                 " does not match the profile granularity ",
                 profile_.blockSize());
    config.validate();
    std::uint64_t sets = config.numSets();
    std::uint32_t ways = config.assoc;

    if (sets > 1) {
        // Exact path: the profiler tracked this set count as a
        // conflict class, so the per-set LRU stack-depth counts give
        // the A-way hit total with no modeling assumption at all.
        const ConflictClass *cls =
            profile_.conflictClass(static_cast<std::uint32_t>(sets));
        if (cls && cls->ways >= ways) {
            // Depth-count monotonicity: the cumulative hit count by
            // stack depth never decreases (each depth adds a
            // non-negative count) and never exceeds the profiled
            // reference total — a violation means the per-set MRU
            // bookkeeping double-counted a reference, which would
            // silently inflate every associativity's prediction.
            SBSIM_AUDIT_BLOCK(
                std::uint64_t cumulative = 0;
                for (std::uint32_t dep = 0; dep < cls->ways; ++dep) {
                    std::uint64_t before = cumulative;
                    cumulative += cls->hitsAtDepth[dep];
                    SBSIM_AUDIT(cumulative >= before,
                                "conflict-class cumulative hits wrapped "
                                "at depth ", dep);
                }
                SBSIM_AUDIT(cumulative <= profile_.references(),
                            "conflict class (", cls->sets, " sets) "
                            "counts ", cumulative, " hits across ",
                            profile_.references(), " references"););
            double hits = 0;
            for (std::uint32_t depth = 0; depth < ways; ++depth)
                hits = hits +
                       static_cast<double>(cls->hitsAtDepth[depth]);
            return hits;
        }
    }

    SBSIM_ASSERT(profile_.distancesTracked(),
                 "analytic L2 model: no exact conflict class covers ",
                 sets, " sets x ", ways,
                 " ways and the profile was built without the distance "
                 "histogram (track_distances=false)");
    // No distance ever exceeds the stream's largest observed one;
    // clamping the open-ended top bucket to it makes the degenerate
    // case (capacity above the footprint -> only cold misses) exact.
    std::uint64_t distance_cap = profile_.maxDistance() + 1;

    double hits = 0;
    profile_.histogram().forEachBucket(
        [&](std::uint64_t lo, std::uint64_t width, std::uint64_t count) {
            std::uint64_t hi = lo + width;
            if (hi > distance_cap)
                hi = distance_cap > lo ? distance_cap : lo + 1;
            double probability;
            if (sets <= 1) {
                // Fully associative: the LRU inclusion property is
                // exact per distance; a straddling bucket prorates
                // uniformly (never happens below distance 64, where
                // buckets have width 1).
                if (hi <= ways) {
                    probability = 1.0;
                } else if (lo >= ways) {
                    probability = 0.0;
                } else {
                    probability = static_cast<double>(ways - lo) /
                                  static_cast<double>(hi - lo);
                }
            } else {
                std::uint64_t representative = lo + (hi - 1 - lo) / 2;
                probability =
                    binomialHitProbability(representative, sets, ways);
            }
            hits = hits + static_cast<double>(count) * probability;
        });
    return hits;
}

double
AnalyticL2Model::predictMissRatioPercent(const CacheConfig &config) const
{
    std::uint64_t refs = profile_.references();
    if (refs == 0)
        return 0.0;
    double misses = static_cast<double>(refs) - expectedHits(config);
    return 100.0 * misses / static_cast<double>(refs);
}

double
AnalyticL2Model::predictLocalHitRatePercent(
    const CacheConfig &config) const
{
    if (profile_.references() == 0)
        return 0.0;
    return 100.0 - predictMissRatioPercent(config);
}

std::unique_ptr<ReuseProfiler>
makeL2Profiler(const std::vector<CacheConfig> &l2s)
{
    auto covered = [](const CacheConfig &l2) {
        return l2.numSets() > 1 && l2.assoc <= 16;
    };
    auto profiler = std::make_unique<ReuseProfiler>(
        l2s.front().blockSize,
        /*track_distances=*/!std::all_of(l2s.begin(), l2s.end(), covered));
    for (const CacheConfig &l2 : l2s) {
        if (covered(l2))
            profiler->trackGeometry(static_cast<std::uint32_t>(l2.numSets()),
                                    l2.assoc);
    }
    return profiler;
}

void
reportAnalyticL2(RunOutput &out, const ReuseProfiler &profile,
                 L2ModelKind kind, const MemorySystemConfig &config)
{
    AnalyticL2Model model(profile);
    L2AnalyticReport &rep = out.l2Analytic;
    rep.model = toString(kind);
    rep.predictedMissRatioPct = model.predictMissRatioPercent(config.l2);
    rep.predictedHitRatePct = model.predictLocalHitRatePercent(config.l2);
    rep.profiledMisses = profile.references();
    rep.uniqueBlocks = profile.uniqueBlocks();
    if (kind == L2ModelKind::BOTH && config.useL2 &&
        profile.references() > 0) {
        rep.simulatedMissRatioPct =
            100.0 - out.results.l2LocalHitRatePercent;
        rep.absErrorPct =
            std::abs(rep.predictedMissRatioPct - rep.simulatedMissRatioPct);
    }
}

} // namespace sbsim
