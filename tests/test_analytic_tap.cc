/**
 * @file
 * Differential tests for the live analytic-L2 tap: the full-system
 * run path feeds its ReuseProfiler from MemorySystem's demand misses
 * as they happen (attachReuseProfiler) instead of recording a
 * MissTrace and profiling it afterwards. The recorded path is kept
 * here as the reference: recordMissTrace -> profileMissTraceInto ->
 * AnalyticL2Model. Both must produce bitwise-identical l2_analytic
 * sections and whole runMetrics documents.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "service/run_spec.hh"
#include "sim/analytic_l2.hh"
#include "sim/experiment.hh"
#include "sim/memory_system.hh"
#include "trace/reuse_profile.hh"
#include "trace/source.hh"
#include "trace/time_sampler.hh"
#include "trace/trace_cache.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

constexpr std::uint64_t kRefs = 200000;

/** The profiler the run path builds for @p l2: one exact conflict
 *  class when it answers the geometry, the distance histogram when
 *  it does not. */
ReuseProfiler
profilerFor(const CacheConfig &l2)
{
    const bool covered = l2.numSets() > 1 && l2.assoc <= 16;
    ReuseProfiler profile(l2.blockSize, /*track_distances=*/!covered);
    if (covered)
        profile.trackGeometry(static_cast<std::uint32_t>(l2.numSets()),
                              l2.assoc);
    return profile;
}

/** The l2_analytic section the run path reports for @p profile. */
L2AnalyticReport
reportFor(const ReuseProfiler &profile, const MemorySystemConfig &config,
          L2ModelKind kind, const RunOutput &simulated)
{
    AnalyticL2Model model(profile);
    L2AnalyticReport rep;
    rep.model = toString(kind);
    rep.predictedMissRatioPct = model.predictMissRatioPercent(config.l2);
    rep.predictedHitRatePct = model.predictLocalHitRatePercent(config.l2);
    rep.profiledMisses = profile.references();
    rep.uniqueBlocks = profile.uniqueBlocks();
    if (kind == L2ModelKind::BOTH && config.useL2 &&
        profile.references() > 0) {
        rep.simulatedMissRatioPct =
            100.0 - simulated.results.l2LocalHitRatePercent;
        rep.absErrorPct =
            std::abs(rep.predictedMissRatioPct - rep.simulatedMissRatioPct);
    }
    return rep;
}

/**
 * The recorded path, run from scratch: simulate the full system, then
 * record the post-L1 stream of a second pass over @p make_input and
 * profile its DEMAND records.
 */
template <typename MakeInput>
RunOutput
recordedRun(const MakeInput &make_input, const MemorySystemConfig &config,
            L2ModelKind kind)
{
    RunOutput out;
    {
        auto input = make_input();
        out = runOnce(*input, config);
    }
    auto input = make_input();
    MissTrace miss = recordMissTrace(*input, config);
    ReuseProfiler profile = profilerFor(config.l2);
    profileMissTraceInto(profile, miss);
    out.l2Analytic = reportFor(profile, config, kind, out);
    return out;
}

std::string
document(const RunOutput &out)
{
    std::ostringstream os;
    runMetrics(out).writeJson(os);
    return os.str();
}

void
expectSameReport(const L2AnalyticReport &got, const L2AnalyticReport &want)
{
    EXPECT_EQ(got.model, want.model);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.predictedMissRatioPct),
              std::bit_cast<std::uint64_t>(want.predictedMissRatioPct));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.predictedHitRatePct),
              std::bit_cast<std::uint64_t>(want.predictedHitRatePct));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.simulatedMissRatioPct),
              std::bit_cast<std::uint64_t>(want.simulatedMissRatioPct));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.absErrorPct),
              std::bit_cast<std::uint64_t>(want.absErrorPct));
    EXPECT_EQ(got.profiledMisses, want.profiledMisses);
    EXPECT_EQ(got.uniqueBlocks, want.uniqueBlocks);
}

/** A full system in the benchmark's distinct-runs style: shuffled
 *  pages, a victim buffer, streams with the unit filter and czone
 *  detection, a hybrid L2 and a bus. */
service::RunSpec
fullSystemSpec(const std::string &program, L2ModelKind kind)
{
    service::RunSpec spec;
    spec.benchmark = program;
    spec.refs = kRefs;
    spec.streams = 10;
    spec.unitFilter = true;
    spec.czoneBits = 18;
    spec.victimEntries = 8;
    spec.shuffledPages = true;
    spec.l2KiloBytes = 64;
    spec.busCycles = 4;
    spec.l2Model = kind;
    return spec;
}

class AnalyticTap : public ::testing::TestWithParam<const char *>
{};

} // namespace

TEST_P(AnalyticTap, RunPathMatchesTheRecordedProfile)
{
    for (L2ModelKind kind : {L2ModelKind::BOTH, L2ModelKind::ANALYTIC}) {
        const service::RunSpec spec = fullSystemSpec(GetParam(), kind);
        ASSERT_EQ(service::validateSpec(spec), "");
        const MemorySystemConfig config = service::specSystemConfig(spec);
        // The answered geometry: the conflict class prices it.
        ASSERT_GT(config.l2.numSets(), 1u);
        ASSERT_LE(config.l2.assoc, 16u);

        const RunOutput want = recordedRun(
            [&spec] { return service::makeSpecInput(spec); }, config,
            kind);
        ASSERT_GT(want.l2Analytic.profiledMisses, 0u);

        for (bool use_cache : {false, true}) {
            SCOPED_TRACE(std::string(toString(kind)) +
                         (use_cache ? ", trace cache on"
                                    : ", trace cache off"));
            TraceCache::instance().clear();
            service::RunExecution exec =
                service::executeRun(spec, nullptr, use_cache);
            EXPECT_EQ(exec.references, kRefs);
            expectSameReport(exec.output.l2Analytic, want.l2Analytic);
            EXPECT_EQ(document(exec.output), document(want));
        }
    }
    TraceCache::instance().clear();
}

TEST_P(AnalyticTap, UnansweredGeometryUsesTheHistogramIdentically)
{
    // RunSpec's L2 always has many sets and 4 ways, so the histogram
    // path (one set, or more than 16 ways) is driven at the tap.
    MemorySystemConfig config = service::specSystemConfig(
        fullSystemSpec(GetParam(), L2ModelKind::BOTH));
    const Benchmark &bench = findBenchmark(GetParam());
    auto make_input = [&bench]() -> std::unique_ptr<TraceSource> {
        auto chain = std::make_unique<OwningSourceChain>();
        TraceSource &workload = chain->add(bench.makeWorkload());
        chain->add(std::make_unique<TruncatingSource>(workload, kRefs));
        return chain;
    };
    for (const auto &[sets, ways] :
         {std::pair<std::uint32_t, std::uint32_t>{1, 64}, {8, 32}}) {
        SCOPED_TRACE(std::to_string(sets) + " sets x " +
                     std::to_string(ways) + " ways");
        config.l2.assoc = ways;
        config.l2.sizeBytes =
            std::uint64_t{sets} * ways * config.l2.blockSize;
        const RunOutput want =
            recordedRun(make_input, config, L2ModelKind::BOTH);

        ReuseProfiler profile = profilerFor(config.l2);
        ASSERT_TRUE(profile.distancesTracked());
        MemorySystem system(config);
        system.attachReuseProfiler(&profile);
        auto input = make_input();
        system.run(*input);
        RunOutput got = collectOutput(system);
        got.l2Analytic =
            reportFor(profile, config, L2ModelKind::BOTH, got);

        ASSERT_GT(profile.histogram().totalCount(), 0u);
        expectSameReport(got.l2Analytic, want.l2Analytic);
        EXPECT_EQ(document(got), document(want));
    }
}

INSTANTIATE_TEST_SUITE_P(FivePrograms, AnalyticTap,
                         ::testing::Values("mgrid", "appsp", "fftpde",
                                           "trfd", "cgm"));
