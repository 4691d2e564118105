/**
 * @file
 * Differential battery for sampled fidelity (--fidelity=sampled): on
 * every paper benchmark, simulating only the phase plan's
 * representative intervals must land within 1 percentage point of the
 * exact full-trace L1 miss rate while simulating at least 10x fewer
 * references — and an exact-fallback plan (short trace) must
 * reproduce the exact run bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "sim/experiment.hh"
#include "sim/sampled_run.hh"
#include "trace/materialized_trace.hh"
#include "trace/phase_profile.hh"
#include "trace/time_sampler.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

constexpr std::uint64_t kRefs = 1200000;

std::shared_ptr<const MaterializedTrace>
materializeBenchmark(const std::string &name, std::uint64_t refs,
                     ScaleLevel level = ScaleLevel::DEFAULT)
{
    const Benchmark &b = findBenchmark(name);
    auto workload = b.makeWorkload(level);
    TruncatingSource limited(*workload, refs);
    return MaterializedTrace::fromSource(limited);
}

/** Field @p field of section @p section in @p out's exported
 *  document, as a double. */
double
exported(const RunOutput &out, const std::string &section,
         const std::string &field)
{
    const MetricsRegistry doc = runMetrics(out);
    const MetricsSection *s = doc.find(section);
    if (s != nullptr) {
        for (const auto &[name, value] : s->fields()) {
            if (name != field)
                continue;
            return value.kind() == MetricValue::Kind::UINT
                       ? static_cast<double>(value.uintValue())
                       : value.realValue();
        }
    }
    ADD_FAILURE() << "no field " << section << "." << field;
    return 0;
}

} // namespace

TEST(SampledFidelity, ParsesFidelityKinds)
{
    EXPECT_EQ(parseFidelity("exact"), Fidelity::EXACT);
    EXPECT_EQ(parseFidelity("sampled"), Fidelity::SAMPLED);
    EXPECT_FALSE(parseFidelity(""));
    EXPECT_FALSE(parseFidelity("Sampled"));
    EXPECT_FALSE(parseFidelity("turbo"));
    EXPECT_STREQ(toString(Fidelity::EXACT), "exact");
    EXPECT_STREQ(toString(Fidelity::SAMPLED), "sampled");
}

TEST(SampledFidelity, ExactFallbackPlanIsBitIdentical)
{
    // A trace shorter than one profiling interval degenerates to an
    // exact plan: one full interval, weight 1, no warmup. Running it
    // through runSampled must reproduce the exact path bit for bit
    // (same counters, same computed doubles).
    auto trace = materializeBenchmark("mgrid", 4000, ScaleLevel::SMALL);
    SamplingPlan plan = buildSamplingPlan(*trace);
    ASSERT_TRUE(plan.exact);

    MemorySystemConfig config = paperSystemConfig(10);
    SharedTraceView view(trace);
    RunOutput exact = runOnce(view, config);
    RunOutput sampled = runSampled(trace, plan, config);

    const SystemResults &e = exact.results;
    const SystemResults &s = sampled.results;
    EXPECT_EQ(s.references, e.references);
    EXPECT_EQ(s.instructionRefs, e.instructionRefs);
    EXPECT_EQ(s.dataRefs, e.dataRefs);
    EXPECT_EQ(s.l1Misses, e.l1Misses);
    EXPECT_EQ(s.l1DataMisses, e.l1DataMisses);
    EXPECT_EQ(s.streamHits, e.streamHits);
    EXPECT_EQ(s.writebacks, e.writebacks);
    EXPECT_EQ(s.cycles, e.cycles);
    EXPECT_EQ(s.streamHitsReady, e.streamHitsReady);
    EXPECT_EQ(s.streamHitsPending, e.streamHitsPending);
    EXPECT_DOUBLE_EQ(s.l1MissRatePercent, e.l1MissRatePercent);
    EXPECT_DOUBLE_EQ(s.l1DataMissRatePercent, e.l1DataMissRatePercent);
    EXPECT_DOUBLE_EQ(s.missesPerInstructionPercent,
                     e.missesPerInstructionPercent);
    EXPECT_DOUBLE_EQ(s.streamHitRatePercent, e.streamHitRatePercent);
    EXPECT_EQ(sampled.sampling.mode, "sampled");
    EXPECT_EQ(sampled.sampling.intervalsSelected, 1u);
    EXPECT_EQ(sampled.sampling.warmupRefs, 0u);
    EXPECT_EQ(sampled.sampling.simulatedRefs, 4000u);
    EXPECT_DOUBLE_EQ(sampled.sampling.missRateStderrPct, 0.0);
}

TEST(SampledFidelity, VictimHitRateAgreesWithItsOwnCounts)
{
    // The victim hit rate is a ratio of weighted sums like every other
    // rate, so it reproduces the document's rounded counts to within
    // their rounding: hits = rate x L1 data misses / 100, each L1 data
    // miss being one probe of the buffer.
    MemorySystemConfig paper = paperSystemConfig(10);
    paper.victimBufferEntries = 8;
    MemorySystemConfig full = paperSystemConfig(
        10, AllocationPolicy::UNIT_FILTER, StrideDetection::CZONE, 18);
    full.victimBufferEntries = 8;
    full.translation = TranslationMode::SHUFFLED;
    full.useL2 = true;
    full.l2.sizeBytes = 256 * 1024;
    full.busCyclesPerBlock = 4;

    for (const char *name : {"mgrid", "appsp", "trfd"}) {
        auto trace = materializeBenchmark(name, kRefs);
        SamplingPlan plan = buildSamplingPlan(*trace);
        ASSERT_FALSE(plan.exact) << name;
        for (const MemorySystemConfig *config : {&paper, &full}) {
            SCOPED_TRACE(std::string(name) +
                         (config == &full ? "/full" : "/paper"));
            RunOutput out = runSampled(trace, plan, *config);
            const double hits = exported(out, "victim", "hits");
            ASSERT_GT(hits, 0.0);
            EXPECT_NEAR(exported(out, "victim", "hit_rate_pct") *
                            exported(out, "l1", "data_misses") / 100.0,
                        hits, 2.0);
        }
    }
}

/**
 * The tentpole acceptance check: for every paper benchmark, the
 * phase-plan estimate tracks exact simulation within 1 point of L1
 * miss rate at >= 10x fewer simulated references.
 */
class SampledDifferential : public ::testing::TestWithParam<const char *>
{};

TEST_P(SampledDifferential, TracksExactWithinOnePointAtTenXSavings)
{
    // Some paper workloads run dry before the cap; sample whatever
    // the generator actually delivers (always >= 40 intervals here).
    auto trace = materializeBenchmark(GetParam(), kRefs);
    const std::uint64_t total = trace->size();
    ASSERT_GE(total, 400000u);

    MemorySystemConfig config = paperSystemConfig(10);
    SharedTraceView view(trace);
    RunOutput exact = runOnce(view, config);

    SamplingPlan plan = buildSamplingPlan(*trace);
    ASSERT_FALSE(plan.exact);
    // The speedup claim: warmup included, the plan simulates at most
    // a tenth of the trace.
    EXPECT_LE(plan.simulatedRefs() + plan.warmupTotal(), total / 10);

    RunOutput sampled = runSampled(trace, plan, config);
    EXPECT_LT(std::abs(sampled.results.l1MissRatePercent -
                       exact.results.l1MissRatePercent),
              1.0)
        << "sampled " << sampled.results.l1MissRatePercent
        << " vs exact " << exact.results.l1MissRatePercent;

    const SamplingReport &sp = sampled.sampling;
    EXPECT_EQ(sp.mode, "sampled");
    EXPECT_EQ(sp.intervalsTotal, plan.intervalsTotal);
    EXPECT_EQ(sp.intervalsSelected, plan.selected.size());
    EXPECT_EQ(sp.intervalRefs, plan.config.intervalRefs);
    EXPECT_EQ(sp.simulatedRefs, plan.simulatedRefs());
    EXPECT_EQ(sp.warmupRefs, plan.warmupTotal());
    // The weighted interval lengths reconstruct the trace length up
    // to per-counter rounding.
    EXPECT_NEAR(static_cast<double>(sp.estimatedRefs),
                static_cast<double>(total), 4.0);
    EXPECT_GE(sp.missRateStderrPct, 0.0);
    EXPECT_TRUE(std::isfinite(sp.missRateStderrPct));
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperBenchmarks, SampledDifferential,
    ::testing::Values("embar", "mgrid", "cgm", "fftpde", "is", "appsp",
                      "appbt", "applu", "spec77", "adm", "bdna",
                      "dyfesm", "mdg", "qcd", "trfd"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });
