/**
 * @file
 * Unit tests for the phase profiler and representative-interval
 * selector behind --fidelity=sampled: plan invariants (weights
 * reconstruct the trace length, warmup bounds, ordering), the exact
 * fallback on short traces, phase discrimination on a synthetic
 * two-phase stream, determinism, and a differential battery pinning
 * the profiler to a plain reference loop on every registry program
 * and on adversarial traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "mem/block.hh"
#include "trace/materialized_trace.hh"
#include "trace/phase_profile.hh"
#include "trace/source.hh"
#include "trace/time_sampler.hh"
#include "util/bitutil.hh"
#include "util/log_histogram.hh"
#include "util/random.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

/** `n` loads streaming through distinct blocks (cold fraction ~1). */
void
appendStreamingPhase(std::vector<MemAccess> &v, std::uint64_t n,
                     Addr base)
{
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(makeLoad(base + i * 64));
}

/** `n` loads cycling a tiny working set (cold fraction ~0). */
void
appendLoopPhase(std::vector<MemAccess> &v, std::uint64_t n, Addr base)
{
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(makeLoad(base + (i % 8) * 64));
}

std::shared_ptr<const MaterializedTrace>
traceOf(std::vector<MemAccess> refs)
{
    VectorSource src(std::move(refs));
    return MaterializedTrace::fromSource(src);
}

std::shared_ptr<const MaterializedTrace>
materializeBenchmark(const Benchmark &b, std::uint64_t refs,
                     ScaleLevel level = ScaleLevel::SMALL)
{
    auto workload = b.makeWorkload(level);
    TruncatingSource limited(*workload, refs);
    return MaterializedTrace::fromSource(limited);
}

std::shared_ptr<const MaterializedTrace>
materializeBenchmark(const char *name, std::uint64_t refs)
{
    return materializeBenchmark(findBenchmark(name), refs);
}

/**
 * The profiling loop the profiler replaced, kept as its reference: a
 * std::unordered_map last-touch probe and a division by intervalRefs
 * per reference, reuse times in one Log2Histogram per interval folded
 * to octaves by bucket lower bound.
 */
std::vector<IntervalProfile>
referenceProfiles(const MaterializedTrace &trace,
                  const PhaseProfileConfig &config)
{
    const std::uint64_t n = trace.size();
    const std::uint64_t intervals =
        (n + config.intervalRefs - 1) / config.intervalRefs;
    std::vector<IntervalProfile> profiles(intervals);
    std::vector<Log2Histogram> reuse(intervals);
    const BlockMapper mapper(config.blockBytes);
    std::unordered_map<std::uint64_t, std::uint64_t> lastPos;
    for (std::uint64_t pos = 0; pos < n; ++pos) {
        IntervalProfile &p = profiles[pos / config.intervalRefs];
        if (p.length == 0)
            p.begin = pos;
        ++p.length;
        const MemAccess &a = trace.data()[pos];
        if (a.isInstruction())
            ++p.ifetch;
        if (a.isWrite())
            ++p.stores;
        auto [it, inserted] =
            lastPos.try_emplace(mapper.blockNumber(a.addr), pos);
        if (inserted) {
            ++p.cold;
        } else {
            reuse[pos / config.intervalRefs].add(pos - it->second);
            it->second = pos;
        }
    }
    for (std::size_t i = 0; i < intervals; ++i) {
        reuse[i].forEachBucket(
            [&](std::uint64_t lower, std::uint64_t, std::uint64_t count) {
                std::size_t bin = lower == 0 ? 0 : floorLog2(lower) + 1;
                profiles[i].reuse[std::min(bin, kReuseOctaves - 1)] +=
                    count;
            });
    }
    return profiles;
}

/** Plans equal in every field, weights bit for bit. */
void
expectSamePlan(const SamplingPlan &got, const SamplingPlan &want)
{
    EXPECT_EQ(got.config.key(), want.config.key());
    EXPECT_EQ(got.totalRefs, want.totalRefs);
    EXPECT_EQ(got.intervalsTotal, want.intervalsTotal);
    EXPECT_EQ(got.exact, want.exact);
    ASSERT_EQ(got.selected.size(), want.selected.size());
    for (std::size_t i = 0; i < got.selected.size(); ++i) {
        const SampledInterval &g = got.selected[i];
        const SampledInterval &w = want.selected[i];
        EXPECT_EQ(g.begin, w.begin) << "interval " << i;
        EXPECT_EQ(g.length, w.length) << "interval " << i;
        EXPECT_EQ(g.warmupBegin, w.warmupBegin) << "interval " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(g.weight),
                  std::bit_cast<std::uint64_t>(w.weight))
            << "interval " << i << ": " << g.weight << " vs " << w.weight;
    }
}

/** The profiler and the reference loop agree on every interval's
 *  counts, and so on the plan built from them. */
void
expectMatchesReference(const MaterializedTrace &trace,
                       const PhaseProfileConfig &config = {})
{
    const std::vector<IntervalProfile> want =
        referenceProfiles(trace, config);
    const std::vector<IntervalProfile> got =
        profileIntervals(trace, config);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i] == want[i]) << "interval " << i;
    expectSamePlan(buildSamplingPlan(trace, config),
                   selectIntervals(want, config));
}

/** The estimator identity every plan must satisfy: the weighted sum
 *  of interval lengths reconstructs the full trace length. */
void
expectWeightsReconstructLength(const SamplingPlan &plan)
{
    double weighted = 0;
    for (const SampledInterval &s : plan.selected)
        weighted += s.weight * static_cast<double>(s.length);
    EXPECT_NEAR(weighted, static_cast<double>(plan.totalRefs),
                1e-6 * static_cast<double>(plan.totalRefs) + 1e-9);
}

void
expectPlanInvariants(const SamplingPlan &plan)
{
    ASSERT_FALSE(plan.selected.empty());
    EXPECT_LE(plan.selected.size(),
              static_cast<std::size_t>(plan.config.maxClusters));
    EXPECT_LE(plan.selected.size(), plan.intervalsTotal);
    std::uint64_t prevBegin = 0;
    bool first = true;
    for (const SampledInterval &s : plan.selected) {
        EXPECT_LE(s.warmupBegin, s.begin);
        EXPECT_LE(s.begin - s.warmupBegin, plan.config.warmupRefs);
        EXPECT_GT(s.length, 0u);
        EXPECT_LE(s.begin + s.length, plan.totalRefs);
        EXPECT_GE(s.weight, 1.0);
        if (!first) {
            EXPECT_GT(s.begin, prevBegin);
        }
        prevBegin = s.begin;
        first = false;
    }
    expectWeightsReconstructLength(plan);
}

} // namespace

TEST(PhaseProfileConfig, KeyEncodesEveryKnob)
{
    EXPECT_EQ(PhaseProfileConfig{}.key(), "iv5000:wu1250:k5:b32:t0.1");

    PhaseProfileConfig c;
    c.intervalRefs = 10000;
    c.warmupRefs = 1000;
    c.maxClusters = 3;
    c.blockBytes = 64;
    c.leaderThreshold = 0.25;
    EXPECT_EQ(c.key(), "iv10000:wu1000:k3:b64:t0.25");

    // Every knob must reach the key, or the TraceCache would hand a
    // plan built under one config to a run requesting another.
    PhaseProfileConfig d;
    for (PhaseProfileConfig *p : {&d}) {
        std::string base = p->key();
        p->intervalRefs *= 2;
        EXPECT_NE(p->key(), base);
    }
}

TEST(PhaseProfile, ShortTraceDegeneratesToExact)
{
    std::vector<MemAccess> v;
    appendStreamingPhase(v, 4000, 0);
    auto trace = traceOf(std::move(v));
    SamplingPlan plan = buildSamplingPlan(*trace);
    EXPECT_TRUE(plan.exact);
    EXPECT_EQ(plan.intervalsTotal, 1u);
    ASSERT_EQ(plan.selected.size(), 1u);
    EXPECT_EQ(plan.selected[0].begin, 0u);
    EXPECT_EQ(plan.selected[0].length, 4000u);
    EXPECT_EQ(plan.selected[0].warmupLength(), 0u);
    EXPECT_DOUBLE_EQ(plan.selected[0].weight, 1.0);
    EXPECT_EQ(plan.simulatedRefs(), 4000u);
    EXPECT_EQ(plan.warmupTotal(), 0u);
}

TEST(PhaseProfile, UniformTraceSelectsOneInterval)
{
    // 24 homogeneous intervals collapse to one leader: the plan
    // simulates a single interval whose weight covers all of them.
    std::vector<MemAccess> v;
    appendLoopPhase(v, 120000, 0);
    auto trace = traceOf(std::move(v));
    SamplingPlan plan = buildSamplingPlan(*trace);
    EXPECT_FALSE(plan.exact);
    EXPECT_EQ(plan.intervalsTotal, 24u);
    ASSERT_EQ(plan.selected.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.selected[0].weight, 24.0);
    expectPlanInvariants(plan);
}

TEST(PhaseProfile, DistinctPhasesGetDistinctRepresentatives)
{
    // Streaming (all cold) then looping (all reuse): the signatures
    // are far apart, so the selector must keep a representative of
    // each phase — and weight each by its own half of the trace.
    std::vector<MemAccess> v;
    appendStreamingPhase(v, 60000, 0);
    appendLoopPhase(v, 60000, 1 << 30);
    auto trace = traceOf(std::move(v));
    SamplingPlan plan = buildSamplingPlan(*trace);
    EXPECT_FALSE(plan.exact);
    EXPECT_EQ(plan.intervalsTotal, 24u);
    ASSERT_GE(plan.selected.size(), 2u);
    bool firstHalf = false;
    bool secondHalf = false;
    for (const SampledInterval &s : plan.selected) {
        if (s.begin + s.length <= 60000)
            firstHalf = true;
        if (s.begin >= 60000)
            secondHalf = true;
    }
    EXPECT_TRUE(firstHalf);
    EXPECT_TRUE(secondHalf);
    expectPlanInvariants(plan);
}

TEST(PhaseProfile, BenchmarkPlanSatisfiesInvariantsAndSaves)
{
    auto trace = materializeBenchmark("mgrid", 300000);
    SamplingPlan plan = buildSamplingPlan(*trace);
    EXPECT_FALSE(plan.exact);
    EXPECT_EQ(plan.intervalsTotal, 60u);
    expectPlanInvariants(plan);
    // The point of the plan: simulate a small fraction of the trace.
    EXPECT_LT(plan.simulatedRefs() + plan.warmupTotal(),
              plan.totalRefs / 4);
}

TEST(PhaseProfile, PlanIsDeterministic)
{
    auto trace = materializeBenchmark("appsp", 200000);
    SamplingPlan a = buildSamplingPlan(*trace);
    SamplingPlan b = buildSamplingPlan(*trace);
    ASSERT_EQ(a.selected.size(), b.selected.size());
    EXPECT_EQ(a.totalRefs, b.totalRefs);
    EXPECT_EQ(a.intervalsTotal, b.intervalsTotal);
    EXPECT_EQ(a.exact, b.exact);
    for (std::size_t i = 0; i < a.selected.size(); ++i) {
        EXPECT_EQ(a.selected[i].begin, b.selected[i].begin);
        EXPECT_EQ(a.selected[i].length, b.selected[i].length);
        EXPECT_EQ(a.selected[i].warmupBegin, b.selected[i].warmupBegin);
        EXPECT_DOUBLE_EQ(a.selected[i].weight, b.selected[i].weight);
    }
}

TEST(PhaseProfile, WarmupCappedAtTraceStart)
{
    // An interval starting at position 0 cannot reach back for
    // warmup; one deep in the trace gets the full configured prefix.
    std::vector<MemAccess> v;
    appendStreamingPhase(v, 60000, 0);
    appendLoopPhase(v, 60000, 1 << 30);
    auto trace = traceOf(std::move(v));
    PhaseProfileConfig config;
    config.warmupRefs = 2500;
    SamplingPlan plan = buildSamplingPlan(*trace, config);
    for (const SampledInterval &s : plan.selected) {
        if (s.begin == 0)
            EXPECT_EQ(s.warmupLength(), 0u);
        else
            EXPECT_EQ(s.warmupLength(),
                      std::min<std::uint64_t>(s.begin, 2500));
    }
}

TEST(PhaseProfileReference, EveryRegistryProgramMatches)
{
    // Every program's default-scale trace at the daemon's request
    // size, so the index grows through many doublings.
    for (const Benchmark &b : allBenchmarks()) {
        SCOPED_TRACE(b.name);
        expectMatchesReference(
            *materializeBenchmark(b, 1500000, ScaleLevel::DEFAULT));
    }
}

TEST(PhaseProfileReference, NonDefaultConfigMatches)
{
    PhaseProfileConfig config;
    config.intervalRefs = 777;
    config.blockBytes = 128;
    config.maxClusters = 7;
    expectMatchesReference(*materializeBenchmark("trfd", 200000), config);
}

TEST(PhaseProfileReference, BlocksOverTheWhole64BitRangeMatch)
{
    // Random addresses from the whole 64-bit range, including both
    // ends, revisited from a pool so there are reuses at every
    // distance; with 1-byte blocks the block numbers span it too.
    Pcg32 rng(13);
    std::vector<Addr> pool = {0, 1, ~Addr{0}, ~Addr{0} - 31,
                              Addr{1} << 63};
    while (pool.size() < 6000)
        pool.push_back(rng.next64());
    // Large power-of-two strides all share their low bits.
    for (Addr k = 1; k <= 512; ++k)
        pool.push_back(k << 40);
    std::vector<MemAccess> v;
    const auto poolSize = static_cast<std::uint32_t>(pool.size());
    for (std::uint32_t i = 0; i < 60000; ++i) {
        const Addr a = pool[i < poolSize ? i : rng.below(poolSize)];
        v.push_back(i % 5 == 0 ? makeStore(a) : makeLoad(a));
    }
    auto trace = traceOf(std::move(v));
    expectMatchesReference(*trace);
    PhaseProfileConfig bytes;
    bytes.blockBytes = 1;
    expectMatchesReference(*trace, bytes);
}

TEST(PhaseProfileReference, OneRepeatedBlockMatches)
{
    std::vector<MemAccess> v(40000, makeLoad(0xdead0000));
    expectMatchesReference(*traceOf(std::move(v)));
}

TEST(PhaseProfileReference, PartialLastIntervalMatches)
{
    // 7 full intervals and a short eighth: the last interval's length
    // and the weights built from it must match.
    std::vector<MemAccess> v;
    appendStreamingPhase(v, 20000, 0);
    appendLoopPhase(v, 16234, 1 << 30);
    auto trace = traceOf(std::move(v));
    ASSERT_NE(trace->size() % PhaseProfileConfig{}.intervalRefs, 0u);
    expectMatchesReference(*trace);
    EXPECT_EQ(profileIntervals(*trace).back().length, 36234u % 5000u);
}

TEST(PhaseProfileReference, EmptyAndSingleIntervalTracesMatch)
{
    expectMatchesReference(*traceOf({}));
    EXPECT_TRUE(profileIntervals(*traceOf({})).empty());
    std::vector<MemAccess> v;
    appendStreamingPhase(v, 5000, 0);
    expectMatchesReference(*traceOf(std::move(v)));
}
