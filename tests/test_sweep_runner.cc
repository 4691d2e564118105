/**
 * @file
 * Differential tests for the parallel sweep runner: for a grid of
 * (benchmark x configuration) jobs, the runner's RunOutputs must be
 * bit-identical to a serial loop over runOnce — at 1 worker, 2
 * workers and hardware concurrency. Any shared mutable state between
 * concurrent simulations (generator seeding, registry access, stream
 * engine internals) shows up here as a mismatch, and as a data race
 * under the `tsan` CTest label (-DSTREAMSIM_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sim/sweep_runner.hh"
#include "trace/time_sampler.hh"
#include "trace/trace_cache.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

constexpr std::uint64_t kRefs = 120000;

/** The benchmarks of the differential grid: one long-unit-stride
 *  model, one non-unit-stride model, one gather-heavy model. */
const std::vector<std::string> kBenchmarks = {"mgrid", "fftpde", "is"};

struct NamedConfig
{
    const char *name;
    MemorySystemConfig config;
};

/** Paper config plus the three allocation/stride variants of the
 *  issue: FILTER, MIN_DELTA, CZONE. */
std::vector<NamedConfig>
gridConfigs()
{
    return {
        {"paper", paperSystemConfig(10)},
        {"filter", paperSystemConfig(10, AllocationPolicy::UNIT_FILTER)},
        {"min_delta",
         paperSystemConfig(10, AllocationPolicy::UNIT_FILTER,
                           StrideDetection::MIN_DELTA)},
        {"czone",
         paperSystemConfig(10, AllocationPolicy::UNIT_FILTER,
                           StrideDetection::CZONE, 18)},
    };
}

/** Serial ground truth: a plain loop over runOnce. */
RunOutput
serialRun(const std::string &benchmark, const MemorySystemConfig &config)
{
    auto workload = findBenchmark(benchmark).makeWorkload();
    TruncatingSource limited(*workload, kRefs);
    return runOnce(limited, config);
}

/** Every scalar of both result structs, compared exactly: the
 *  parallel runner must be bit-identical to the serial loop. */
void
expectIdentical(const RunOutput &got, const RunOutput &want,
                const std::string &label)
{
    SCOPED_TRACE(label);
    const SystemResults &g = got.results;
    const SystemResults &w = want.results;
    EXPECT_EQ(g.references, w.references);
    EXPECT_EQ(g.instructionRefs, w.instructionRefs);
    EXPECT_EQ(g.dataRefs, w.dataRefs);
    EXPECT_EQ(g.l1Misses, w.l1Misses);
    EXPECT_EQ(g.l1DataMisses, w.l1DataMisses);
    EXPECT_EQ(g.streamHits, w.streamHits);
    EXPECT_EQ(g.victimHits, w.victimHits);
    EXPECT_EQ(g.writebacks, w.writebacks);
    EXPECT_EQ(g.l1MissRatePercent, w.l1MissRatePercent);
    EXPECT_EQ(g.streamHitRatePercent, w.streamHitRatePercent);
    EXPECT_EQ(g.extraBandwidthPercent, w.extraBandwidthPercent);
    EXPECT_EQ(g.l2Hits, w.l2Hits);
    EXPECT_EQ(g.l2Misses, w.l2Misses);
    EXPECT_EQ(g.l2LocalHitRatePercent, w.l2LocalHitRatePercent);
    EXPECT_EQ(g.cycles, w.cycles);
    EXPECT_EQ(g.streamHitsReady, w.streamHitsReady);
    EXPECT_EQ(g.streamHitsPending, w.streamHitsPending);
    EXPECT_EQ(g.busQueueCycles, w.busQueueCycles);
    EXPECT_EQ(g.avgAccessCycles, w.avgAccessCycles);

    const StreamEngineStats &ge = got.engineStats;
    const StreamEngineStats &we = want.engineStats;
    EXPECT_EQ(ge.lookups, we.lookups);
    EXPECT_EQ(ge.hits, we.hits);
    EXPECT_EQ(ge.streamMisses, we.streamMisses);
    EXPECT_EQ(ge.allocations, we.allocations);
    EXPECT_EQ(ge.prefetchesIssued, we.prefetchesIssued);
    EXPECT_EQ(ge.uselessFlushed, we.uselessFlushed);
    EXPECT_EQ(ge.uselessInvalidated, we.uselessInvalidated);

    EXPECT_EQ(got.lengthSharesPercent, want.lengthSharesPercent);
    EXPECT_EQ(got.results.victimHitRatePercent,
              want.results.victimHitRatePercent);
}

class SweepRunnerDifferential : public ::testing::TestWithParam<unsigned>
{};

} // namespace

TEST_P(SweepRunnerDifferential, BitIdenticalToSerialRunOnceLoop)
{
    unsigned workers = GetParam();
    if (workers == 0) // sentinel: hardware concurrency
        workers = SweepRunner::defaultJobs();

    std::vector<SweepJob> jobs;
    std::vector<RunOutput> want;
    std::vector<std::string> labels;
    for (const std::string &benchmark : kBenchmarks) {
        for (const NamedConfig &nc : gridConfigs()) {
            labels.push_back(benchmark + "/" + nc.name + "/jobs=" +
                             std::to_string(workers));
            jobs.push_back(benchmarkJob(benchmark, ScaleLevel::DEFAULT,
                                        nc.config, labels.back(),
                                        kRefs));
            want.push_back(serialRun(benchmark, nc.config));
        }
    }

    SweepRunner runner(workers);
    std::vector<SweepResult> got = runner.run(jobs);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].label, labels[i]); // submission order kept
        expectIdentical(got[i].output, want[i], labels[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(Jobs, SweepRunnerDifferential,
                         ::testing::Values(1u, 2u, 0u),
                         [](const auto &info) {
                             return info.param == 0
                                        ? std::string("hardware")
                                        : "j" + std::to_string(info.param);
                         });

// The reuse layer must never change results, only their cost: the same
// grid run with the trace cache disabled (every job simulated naively)
// and enabled (front end recorded once per family, members replayed)
// must match bit for bit, and the enabled run must actually have taken
// the record/replay path rather than silently degrading to naive.
TEST(SweepRunner, TraceCacheOnAndOffBitIdentical)
{
    std::vector<SweepJob> jobs;
    std::vector<std::string> labels;
    for (const std::string &benchmark : {std::string("mgrid"),
                                         std::string("is")}) {
        // A sweep family: secondary-level variants over one front end.
        for (std::uint32_t streams : {2u, 6u, 10u}) {
            labels.push_back(benchmark + "/streams" +
                             std::to_string(streams));
            jobs.push_back(benchmarkJob(benchmark, ScaleLevel::DEFAULT,
                                        paperSystemConfig(streams),
                                        labels.back(), kRefs));
        }
        labels.push_back(benchmark + "/czone");
        jobs.push_back(benchmarkJob(
            benchmark, ScaleLevel::DEFAULT,
            paperSystemConfig(10, AllocationPolicy::UNIT_FILTER,
                              StrideDetection::CZONE, 18),
            labels.back(), kRefs));
    }

    TraceCache::instance().clear();
    SweepRunner off(2);
    off.setTraceCacheEnabled(false);
    EXPECT_FALSE(off.traceCacheEnabled());
    std::vector<SweepResult> want = off.run(jobs);
    TraceCacheStats off_stats = TraceCache::instance().stats();
    EXPECT_EQ(off_stats.missTracesRecorded, 0u);
    EXPECT_EQ(off_stats.replays, 0u);

    SweepRunner on(2);
    on.setTraceCacheEnabled(true);
    std::vector<SweepResult> got = on.run(jobs);
    TraceCacheStats on_stats = TraceCache::instance().stats();
    // Two benchmarks x one shared front end each: one recording per
    // family, every member (recorder included) served from it once,
    // the stream counts by a stream-stack pass where it answers them
    // and the rest by replay.
    EXPECT_EQ(on_stats.missTracesRecorded, 2u);
    EXPECT_EQ(on_stats.replays + on_stats.stackJobs,
              static_cast<std::uint64_t>(jobs.size()));
    EXPECT_GT(on_stats.stackJobs, 0u);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].label, labels[i]);
        expectIdentical(got[i].output, want[i].output, labels[i]);
    }
    TraceCache::instance().clear();
}

// A miss trace held resident in the store serves even a one-job
// family, as in the Table 4 bench: it records each front end once,
// holds the recording for its L2 study, and sweeps the stream half.
TEST(SweepRunner, ResidentMissTraceServesASingletonJob)
{
    SweepJob job = benchmarkJob("mgrid", ScaleLevel::DEFAULT,
                                paperSystemConfig(4), "replayed", kRefs);

    TraceCache &cache = TraceCache::instance();
    cache.clear();
    std::shared_ptr<const MissTrace> held = cache.getOrRecord(
        missTraceKey(job.sourceKey, job.config), [&job] {
            auto src = job.makeSource();
            return recordMissTrace(*src, job.config);
        });

    SweepRunner runner(1);
    runner.setTraceCacheEnabled(true);
    std::vector<SweepResult> got = runner.run({job});
    ASSERT_EQ(got.size(), 1u);
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.replays, 1u);
    EXPECT_EQ(stats.missTracesRecorded, 1u);
    expectIdentical(got[0].output,
                    serialRun("mgrid", paperSystemConfig(4)),
                    "resident-miss-trace");
    cache.clear();
}

TEST(SweepRunner, ThroughputFieldsPopulated)
{
    std::vector<SweepJob> jobs = {benchmarkJob(
        "mgrid", ScaleLevel::DEFAULT, paperSystemConfig(4), "", 50000)};
    std::vector<SweepResult> results = SweepRunner(2).run(jobs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].label, "mgrid");
    EXPECT_EQ(results[0].references, 50000u);
    EXPECT_GE(results[0].wallSeconds, 0.0);
    EXPECT_GE(results[0].refsPerSecond, 0.0);
}

TEST(SweepRunner, EmptyGridReturnsEmpty)
{
    EXPECT_TRUE(SweepRunner(4).run({}).empty());
}

TEST(SweepRunner, BenchmarkJobHonoursTimeSampling)
{
    // The sampled job's chain must equal a hand-built workload ->
    // TimeSampler(10k/90k) -> TruncatingSource chain, reference for
    // reference.
    constexpr std::uint64_t kLimit = 50000;
    SweepJob sampled = benchmarkJob("mgrid", ScaleLevel::DEFAULT,
                                    paperSystemConfig(4), "", kLimit,
                                    /*time_sample=*/true);
    auto src = sampled.makeSource();

    auto workload = findBenchmark("mgrid").makeWorkload();
    TimeSampler sampler(*workload, 10000, 90000);
    TruncatingSource want(sampler, kLimit);

    MemAccess got_access, want_access;
    std::uint64_t n = 0;
    for (;;) {
        bool got_more = src->next(got_access);
        bool want_more = want.next(want_access);
        ASSERT_EQ(got_more, want_more) << "at reference " << n;
        if (!got_more)
            break;
        ASSERT_EQ(got_access, want_access) << "at reference " << n;
        ++n;
    }
    EXPECT_GT(n, 0u);
    EXPECT_LE(n, kLimit);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    parallelFor(hits.size(), 4,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, PropagatesWorkerExceptions)
{
    EXPECT_THROW(parallelFor(8, 2,
                             [](std::size_t i) {
                                 if (i == 5)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, SerialFallbackRunsInline)
{
    std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(4);
    parallelFor(seen.size(), 1,
                [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

// The non-determinism audit of the issue, as an executable check: two
// concurrent instances of the same benchmark must generate identical
// reference streams. ComposedWorkload owns its Pcg32 (seeded from the
// spec, never from time or random_device) and the registry is an
// immutable function-local static, so instances share nothing mutable.
TEST(WorkloadDeterminism, ConcurrentInstancesGenerateIdenticalStreams)
{
    constexpr std::uint64_t kSample = 200000;
    for (const char *name : {"mgrid", "cgm", "adm"}) {
        std::vector<MemAccess> a, b;
        auto drainInto = [&](std::vector<MemAccess> &out) {
            auto workload = findBenchmark(name).makeWorkload();
            TruncatingSource limited(*workload, kSample);
            MemAccess access;
            while (limited.next(access))
                out.push_back(access);
        };
        std::thread ta([&] { drainInto(a); });
        std::thread tb([&] { drainInto(b); });
        ta.join();
        tb.join();
        EXPECT_EQ(a, b) << name;
    }
}
