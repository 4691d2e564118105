/**
 * @file
 * Google-benchmark microbenchmarks of the simulator components
 * themselves: raw cache access rate, stream-engine lookup rate, full
 * memory-system reference rate, and workload generation rate. These
 * gate how large the reproduced experiments can be.
 */

#include <benchmark/benchmark.h>

#include <numeric>

#include "cache/cache.hh"
#include "service/run_spec.hh"
#include "sim/experiment.hh"
#include "sim/l2_study.hh"
#include "sim/memory_system.hh"
#include "sim/sampled_run.hh"
#include "sim/stream_stack.hh"
#include "sim/sweep_runner.hh"
#include "trace/materialized_trace.hh"
#include "trace/phase_profile.hh"
#include "stream/prefetch_engine.hh"
#include "trace/time_sampler.hh"
#include "trace/trace_cache.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig config;
    config.sizeBytes = 64 * 1024;
    config.assoc = static_cast<std::uint32_t>(state.range(0));
    config.replacement = ReplacementKind::RANDOM;
    Cache cache(config);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(makeLoad(a)));
        a += 32;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(4)->Arg(8);

/**
 * The stream engine alone, driven by a recorded program's miss
 * stream: mgrid's post-L1 events (1.5M references, the paper's front
 * end) with every demand miss presented to
 * PrefetchEngine::onPrimaryMiss and every write-back to onWriteback,
 * as a replay presents them, without the timing or memory side. The
 * recording is made once, outside the timed loop; each iteration
 * builds a fresh engine. Args: stream count, then 0 for allocation on
 * every miss (Fig. 3) or 1 for the unit filter backed by 18-bit czone
 * detection (Fig. 9). Items are demand misses.
 */
void
BM_StreamEngineReplay(benchmark::State &state)
{
    static const MissTrace trace = [] {
        auto workload = findBenchmark("mgrid").makeWorkload();
        TruncatingSource limited(*workload, 1500000);
        return recordMissTrace(limited, paperSystemConfig(10));
    }();
    const bool filtered = state.range(1) != 0;
    const StreamEngineConfig config =
        paperSystemConfig(
            static_cast<std::uint32_t>(state.range(0)),
            filtered ? AllocationPolicy::UNIT_FILTER
                     : AllocationPolicy::ALWAYS,
            filtered ? StrideDetection::CZONE : StrideDetection::NONE, 18)
            .streams;
    std::uint64_t demands = 0;
    for (auto _ : state) {
        PrefetchEngine engine(config);
        std::uint64_t tick = 0;
        trace.forEach([&](const MissRecord &rec) {
            // Any strictly increasing clock orders stream recency the
            // way the memory system's cycle counter does.
            tick += 1 + rec.dL1HitCycles + rec.dVictimHitCycles +
                    rec.dSwPrefetchCycles;
            if (rec.kind == MissRecord::Kind::DEMAND) {
                engine.onPrimaryMiss(rec.access, tick);
                ++demands;
            } else if (rec.kind == MissRecord::Kind::WRITEBACK) {
                engine.onWriteback(rec.access.addr);
            }
        });
        engine.finalize();
        benchmark::DoNotOptimize(engine.engineStats());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(demands));
}
BENCHMARK(BM_StreamEngineReplay)
    ->Args({1, 0})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Unit(benchmark::kMillisecond);

void
BM_MemorySystem(benchmark::State &state)
{
    MemorySystemConfig config;
    config.streams.numStreams = 10;
    MemorySystem system(config);
    Addr a = 0;
    for (auto _ : state) {
        system.processAccess(makeLoad(a));
        a += 8;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemorySystem);

/**
 * The end-to-end number every reproduced figure is bounded by: a full
 * synthetic workload generated and retired through the paper's system
 * configuration (10 streams, unit filter, czone detector), measured in
 * references per second. tools/bench_throughput.sh records this into
 * BENCH_throughput.json to track the perf trajectory across PRs.
 */
void
BM_RunBenchmark(benchmark::State &state)
{
    constexpr std::uint64_t kRefs = 200000;
    const Benchmark &bench = findBenchmark("mgrid");
    for (auto _ : state) {
        auto workload = bench.makeWorkload();
        TruncatingSource limited(*workload, kRefs);
        MemorySystem system(paperSystemConfig(
            10, AllocationPolicy::UNIT_FILTER, StrideDetection::CZONE, 18));
        std::uint64_t n = system.run(limited);
        benchmark::DoNotOptimize(n);
        SystemResults results = system.finish();
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kRefs));
}
BENCHMARK(BM_RunBenchmark)->Unit(benchmark::kMillisecond);

/**
 * The full system the paper's scaling study runs, one request as the
 * benchmark's distinct-runs workload sends it: executeRun with the
 * trace cache off over mgrid, with shuffled pages, an 8-entry victim
 * buffer, 10 streams behind the unit filter and czone detection, a
 * 256 KB hybrid L2 priced by simulation and by the analytic model,
 * and a 4-cycle bus. Items are references.
 */
void
BM_FullSystemRun(benchmark::State &state)
{
    service::RunSpec spec;
    spec.benchmark = "mgrid";
    spec.refs = 1500000;
    spec.streams = 10;
    spec.unitFilter = true;
    spec.czoneBits = 18;
    spec.victimEntries = 8;
    spec.shuffledPages = true;
    spec.l2KiloBytes = 256;
    spec.l2Model = L2ModelKind::BOTH;
    spec.busCycles = 4;
    std::uint64_t refs = 0;
    for (auto _ : state) {
        service::RunExecution exec =
            service::executeRun(spec, nullptr, /*use_trace_cache=*/false);
        refs += exec.references;
        benchmark::DoNotOptimize(exec.output);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_FullSystemRun)->Unit(benchmark::kMillisecond);

/**
 * The sampled-fidelity pipeline end to end: materialise the trace,
 * profile its phases, and simulate only the plan's representative
 * intervals — against BM_RunBenchmark's exact full-trace run of the
 * same workload. Items are the references the run *represents* (the
 * full trace), so items/s ratios read directly as effective speedup.
 */
void
BM_RunBenchmarkSampled(benchmark::State &state)
{
    constexpr std::uint64_t kRefs = 200000;
    const Benchmark &bench = findBenchmark("mgrid");
    for (auto _ : state) {
        auto workload = bench.makeWorkload();
        TruncatingSource limited(*workload, kRefs);
        auto trace = MaterializedTrace::fromSource(limited);
        SamplingPlan plan = buildSamplingPlan(*trace);
        RunOutput out = runSampled(
            trace, plan,
            paperSystemConfig(10, AllocationPolicy::UNIT_FILTER,
                              StrideDetection::CZONE, 18));
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kRefs));
}
BENCHMARK(BM_RunBenchmarkSampled)->Unit(benchmark::kMillisecond);

/**
 * The two steps a sampled request pays before simulating anything,
 * at the daemon's request size: draining the input chain into a
 * trace (generation included, as a sampled run's planner does it) and
 * profiling that trace into a sampling plan. Items are references.
 */
constexpr std::uint64_t kSampledInputRefs = 1500000;

void
BM_MaterializeTrace(benchmark::State &state)
{
    const Benchmark &bench = findBenchmark("mgrid");
    for (auto _ : state) {
        auto workload = bench.makeWorkload();
        TruncatingSource limited(*workload, kSampledInputRefs);
        auto trace = MaterializedTrace::fromSource(limited);
        benchmark::DoNotOptimize(trace->data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kSampledInputRefs));
}
BENCHMARK(BM_MaterializeTrace)->Unit(benchmark::kMillisecond);

void
BM_BuildSamplingPlan(benchmark::State &state)
{
    auto workload = findBenchmark("mgrid").makeWorkload();
    TruncatingSource limited(*workload, kSampledInputRefs);
    auto trace = MaterializedTrace::fromSource(limited);
    for (auto _ : state) {
        SamplingPlan plan = buildSamplingPlan(*trace);
        benchmark::DoNotOptimize(plan);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace->size()));
}
BENCHMARK(BM_BuildSamplingPlan)->Unit(benchmark::kMillisecond);

/**
 * The workload the trace-reuse layer targets: a sweep family — one
 * benchmark swept across stream counts behind a shared L1 front end.
 * Naive regenerates the workload and re-simulates the L1 per point;
 * Cached records the post-L1 miss stream once and runs one
 * stream-stack pass over it for the family. At this length mgrid has
 * duplicate stream heads at 4, 6, 8 and 10 streams, so those four
 * points replay the recording whole and the pass answers 1 and 2.
 * Single worker, so the ratio isolates the algorithmic saving from
 * thread-pool scaling; tools/bench_throughput.sh records it as
 * sweep_family_speedup in BENCH_throughput.json.
 */
constexpr std::uint64_t kFamilyRefs = 200000;
const std::uint32_t kFamilyStreams[] = {1, 2, 4, 6, 8, 10};

std::vector<SweepJob>
sweepFamilyJobs()
{
    std::vector<SweepJob> jobs;
    for (std::uint32_t s : kFamilyStreams) {
        jobs.push_back(benchmarkJob("mgrid", ScaleLevel::DEFAULT,
                                    paperSystemConfig(s),
                                    std::to_string(s), kFamilyRefs));
    }
    return jobs;
}

void
BM_SweepFamilyNaive(benchmark::State &state)
{
    for (auto _ : state) {
        std::vector<SweepJob> jobs = sweepFamilyJobs();
        SweepRunner runner(1);
        runner.setTraceCacheEnabled(false);
        std::vector<SweepResult> results = runner.run(jobs);
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kFamilyRefs * std::size(kFamilyStreams)));
}
BENCHMARK(BM_SweepFamilyNaive)->Unit(benchmark::kMillisecond);

void
BM_SweepFamilyCached(benchmark::State &state)
{
    for (auto _ : state) {
        // Start cold each iteration so the measurement amortises one
        // materialise + record over the family, exactly as a fresh
        // sweep process would.
        TraceCache::instance().clear();
        std::vector<SweepJob> jobs = sweepFamilyJobs();
        SweepRunner runner(1);
        runner.setTraceCacheEnabled(true);
        // No stderr report inside the timed loop.
        runner.setCacheReport(false);
        std::vector<SweepResult> results = runner.run(jobs);
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kFamilyRefs * std::size(kFamilyStreams)));
}
BENCHMARK(BM_SweepFamilyCached)->Unit(benchmark::kMillisecond);

/**
 * Replay alone, the step each point of a sweep family repeats: one
 * recorded miss stream (mgrid, 1.5M references, paper front end)
 * driven through the paper's 10-stream secondary level. The recording
 * is made once, outside the timed loop. Items are miss records.
 */
void
BM_ReplayMissTrace(benchmark::State &state)
{
    const MemorySystemConfig config = paperSystemConfig(10);
    auto workload = findBenchmark("mgrid").makeWorkload();
    TruncatingSource limited(*workload, 1500000);
    const MissTrace trace = recordMissTrace(limited, config);
    for (auto _ : state) {
        RunOutput out = replayOnce(trace, config);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_ReplayMissTrace)->Unit(benchmark::kMillisecond);

/**
 * The stream-stack pass alone, which answers a Fig. 3 family in place
 * of one replay per stream count: one recorded miss stream (is, 1.5M
 * references, paper front end) through counts 1-10 in one pass. is
 * has no duplicate stream heads, so no count diverges and the pass
 * walks the whole trace. The recording is made once, outside the
 * timed loop. Items are demand misses x counts.
 */
void
BM_StreamStackFamily(benchmark::State &state)
{
    const MemorySystemConfig config = paperSystemConfig(10);
    auto workload = findBenchmark("is").makeWorkload();
    TruncatingSource limited(*workload, 1500000);
    const MissTrace trace = recordMissTrace(limited, config);
    std::vector<std::uint32_t> counts(10);
    std::iota(counts.begin(), counts.end(), 1u);
    std::uint64_t lookups = 0;
    for (auto _ : state) {
        std::map<std::uint32_t, RunOutput> out =
            runStreamStack(trace, config, counts);
        if (out.size() != counts.size()) {
            state.SkipWithError("a stream count diverged");
            break;
        }
        lookups = out.begin()->second.engineStats.lookups;
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * lookups * counts.size()));
}
BENCHMARK(BM_StreamStackFamily)->Unit(benchmark::kMillisecond);

/**
 * The --fidelity gate pair: the paper's Figure 3 stream-count sweep
 * (six points over one benchmark) exact versus sampled. Exact runs
 * every point through the full front end (cache off, single worker);
 * sampled profiles the trace once and simulates only each point's
 * representative intervals. tools/bench_throughput.sh derives
 * fidelity_sampled_speedup from the pair and CHECK-gates it at >= 5x.
 * Items are the references the sweep represents.
 */
constexpr std::uint64_t kFidelityRefs = 1000000;

std::vector<SweepJob>
fidelitySweepJobs(Fidelity fidelity)
{
    std::vector<SweepJob> jobs;
    for (std::uint32_t s : kFamilyStreams) {
        SweepJob job = benchmarkJob("mgrid", ScaleLevel::DEFAULT,
                                    paperSystemConfig(s),
                                    std::to_string(s), kFidelityRefs);
        job.fidelity = fidelity;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

void
BM_SweepFidelityExact(benchmark::State &state)
{
    for (auto _ : state) {
        std::vector<SweepJob> jobs =
            fidelitySweepJobs(Fidelity::EXACT);
        SweepRunner runner(1);
        runner.setTraceCacheEnabled(false);
        std::vector<SweepResult> results = runner.run(jobs);
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kFidelityRefs *
        std::size(kFamilyStreams)));
}
BENCHMARK(BM_SweepFidelityExact)->Unit(benchmark::kMillisecond);

void
BM_SweepFidelitySampled(benchmark::State &state)
{
    for (auto _ : state) {
        // Cold cache each iteration: the measurement pays for one
        // materialise + phase profile and six interval replays,
        // exactly as a fresh sampled sweep process would.
        TraceCache::instance().clear();
        std::vector<SweepJob> jobs =
            fidelitySweepJobs(Fidelity::SAMPLED);
        SweepRunner runner(1);
        runner.setTraceCacheEnabled(false);
        std::vector<SweepResult> results = runner.run(jobs);
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kFidelityRefs *
        std::size(kFamilyStreams)));
}
BENCHMARK(BM_SweepFidelitySampled)->Unit(benchmark::kMillisecond);

/**
 * The analytic L2 engine against the simulated battery it replaces:
 * one recorded miss stream priced over the whole Table 4 candidate
 * grid. Arg(0) is the set-sampling log2 of the simulated baseline
 * (0 = exact — the accuracy-equivalent comparison; 3 = the production
 * 1/8 sampling). Items are demand misses consumed.
 */
MissTrace &
analyticBenchTrace()
{
    static MissTrace trace = [] {
        const Benchmark &bench = findBenchmark("mgrid");
        auto workload = bench.makeWorkload(ScaleLevel::DEFAULT);
        TruncatingSource limited(*workload, 400000);
        MemorySystemConfig front;
        front.l1 = SplitCacheConfig::paperDefault();
        return recordMissTrace(limited, front);
    }();
    return trace;
}

void
BM_AnalyticVsSimulatedL2(benchmark::State &state)
{
    const MissTrace &trace = analyticBenchTrace();
    const bool analytic = state.range(0) < 0;
    std::uint64_t fed = 0;
    for (auto _ : state) {
        if (analytic) {
            AnalyticCacheStudy study(table4CandidateConfigs());
            fed = profileMissesInto(study, trace);
            benchmark::DoNotOptimize(study.results());
        } else {
            SecondaryCacheStudy study(
                table4CandidateConfigs(),
                static_cast<unsigned>(state.range(0)));
            fed = replayMissesInto(study, trace);
            benchmark::DoNotOptimize(study.results());
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * fed));
}
BENCHMARK(BM_AnalyticVsSimulatedL2)
    ->Arg(-1) // analytic engine
    ->Arg(0)  // exact simulated battery
    ->Arg(3)  // 1/8 set-sampled battery
    ->Unit(benchmark::kMillisecond);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto workload = findBenchmark("mgrid").makeWorkload();
    MemAccess a;
    for (auto _ : state) {
        if (!workload->next(a))
            workload->reset();
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadGeneration);

} // namespace

BENCHMARK_MAIN();
