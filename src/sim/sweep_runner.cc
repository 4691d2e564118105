#include "sweep_runner.hh"

#include <atomic>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "sim/stream_stack.hh"
#include "trace/materialized_trace.hh"
#include "trace/reuse_profile.hh"
#include "trace/time_sampler.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/mutex.hh"
#include "util/stats.hh"
#include "util/thread_annotations.hh"

namespace sbsim {

namespace {

/**
 * First-exception collector for a worker pool: workers park the first
 * exception they see, the pool owner rethrows it after the join. The
 * lock contract is compiler-checked: first_ is only touched under
 * mutex_, and both methods take the lock themselves (callers must not
 * hold it).
 */
class ErrorCollector
{
  public:
    /** Park std::current_exception() unless one is already parked. */
    void
    capture() SBSIM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        if (!first_)
            first_ = std::current_exception();
    }

    /** Rethrow the parked exception, if any. Call after joining. */
    void
    rethrowIfAny() SBSIM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        if (first_)
            std::rethrow_exception(first_);
    }

  private:
    Mutex mutex_;
    std::exception_ptr first_ SBSIM_GUARDED_BY(mutex_);
};

/**
 * Serialises heartbeat lines on stderr. The capability guards the
 * *stream*, not data: progress counters are atomics owned by the
 * caller, the mutex only keeps concurrently completing jobs from
 * interleaving their fprintf bytes mid-line.
 */
class HeartbeatPrinter
{
  public:
    void
    printProgress(std::size_t done, std::size_t total,
                  std::uint64_t refs, double rate)
        SBSIM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        std::fprintf(stderr,
                     "sweep: %zu/%zu jobs, %llu refs, %.0f refs/s\n",
                     done, total,
                     static_cast<unsigned long long>(refs), rate);
    }

  private:
    Mutex mutex_;
};

/** The kinds of artifact a sweep plans. */
enum class Kind
{
    REF_TRACE,
    MISS_TRACE,
    SAMPLING_PLAN,
    STREAM_STACK,
};

/**
 * One artifact the sweep's jobs read, keyed by (kind, key). It is
 * built from its input: a MissTrace or SamplingPlan from a RefTrace,
 * a StreamStack from a MissTrace, a RefTrace from the job's source.
 */
struct Node
{
    Kind kind;
    /** The key it is shared under (in the store too, for the kinds
     *  the store holds). */
    std::string key;
    /** The job whose factory and config build the artifact. */
    std::size_t producer;
    Node *input;
    /** Build phase: one after the input's. */
    int level;
    /** Jobs that run from it once it is built. */
    std::vector<std::size_t> readers = {};
    /** Built nodes that will read it to build themselves (those the
     *  store already holds will not). */
    std::size_t builders = 0;
    /** A reader cannot run without it. */
    bool required = false;
    bool build = false;
    std::shared_ptr<const MaterializedTrace> trace = nullptr;
    std::shared_ptr<const MissTrace> miss = nullptr;
    std::shared_ptr<const SamplingPlan> sampling = nullptr;
    /** A StreamStack's output per stream count it answered; its
     *  miss is its input's while some reader's count diverged. */
    std::map<std::uint32_t, RunOutput> answered = {};
};

constexpr int kLevels = 3;

/** A sweep's artifacts and, per job, the node it runs from (null or
 *  unbuilt: its own source). */
struct Plan
{
    std::deque<Node> nodes;
    std::vector<Node *> runs;
};

/** The artifact stored under @p key, built by @p build and stored on
 *  a miss, or, with the store off, a private build. */
template <typename T>
std::shared_ptr<const T>
obtainArtifact(bool use_store, const std::string &key,
               const std::function<std::shared_ptr<const T>()> &build)
{
    if (use_store)
        return TraceCache::instance().getOrBuild<T>(key, build);
    return build();
}

/** A view of @p trace when there is one, else the job's own source. */
std::unique_ptr<TraceSource>
openInput(const std::shared_ptr<const MaterializedTrace> &trace,
          const SweepJob &job)
{
    if (trace)
        return std::make_unique<SharedTraceView>(trace);
    return job.makeSource();
}

/**
 * The planner. Each job declares the artifacts it reads. A sampled
 * job reads its SamplingPlan (over its RefTrace), store on or off.
 * With the store on, an exact job also runs from its StreamStack
 * (over its MissTrace) when its config is in streamStackDomain and it
 * asks for no analytic L2 (the pass has no tap), else from its
 * MissTrace (a replay) or, failing that or when it captures events,
 * its RefTrace (a shared view); otherwise it runs from its own
 * source. Then, one node after everything reading it:
 *  - SamplingPlans and what they need are built;
 *  - any other node is built when two or more readers (jobs, or built
 *    nodes the store lacks) would otherwise each produce it, or when
 *    one would and the store already holds it; a built StreamStack
 *    needs its MissTrace;
 *  - an unbuilt StreamStack hands its jobs to its MissTrace, and an
 *    unbuilt MissTrace its replayers to its RefTrace.
 * A MissTrace is recorded from its RefTrace when that is built, else
 * from the generator. With the store off, only sampled jobs' nodes are
 * built, shared within the sweep by key but not stored. A run is a
 * one-job plan (runJob), so it builds nothing the store does not
 * already hold, bar a sampled run's trace and plan.
 */
Plan
planSweep(std::span<const SweepJob> jobs, unsigned workers, bool use_store)
{
    Plan plan{{}, std::vector<Node *>(jobs.size())};
    std::map<std::pair<Kind, std::string>, Node *> index;
    auto declare = [&](Kind kind, const std::string &key, std::size_t job,
                       Node *input) -> Node & {
        auto [it, fresh] = index.try_emplace({kind, key}, nullptr);
        if (fresh) {
            it->second = &plan.nodes.emplace_back(
                Node{kind, key, job, input, input ? input->level + 1 : 0});
        }
        return *it->second;
    };

    const PhaseProfileConfig profile_config;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &job = jobs[i];
        SBSIM_ASSERT(!job.sourceKey.empty(), "sweep job ", job.label,
                     " has no source key");
        Node &ref = declare(Kind::REF_TRACE, job.sourceKey, i, nullptr);
        Node *&runs = plan.runs[i];
        if (job.fidelity == Fidelity::SAMPLED) {
            SBSIM_ASSERT(!job.eventTrace &&
                             job.l2Model == L2ModelKind::SIMULATED,
                         "sampled jobs capture no event trace and "
                         "profile no L2");
            runs = &declare(Kind::SAMPLING_PLAN,
                            samplingPlanKey(job.sourceKey, profile_config),
                            i, &ref);
            runs->required = ref.required = true;
            runs->readers.push_back(i);
            ref.readers.push_back(i);
            continue;
        }
        if (!use_store)
            continue;
        Node &miss = declare(Kind::MISS_TRACE,
                             missTraceKey(job.sourceKey, job.config), i, &ref);
        // A replay cannot re-emit front-end events.
        if (job.eventTrace) {
            runs = &ref;
        } else if (job.l2Model == L2ModelKind::SIMULATED &&
                   streamStackDomain(job.config)) {
            const StreamEngineConfig &s = job.config.streams;
            runs = &declare(
                Kind::STREAM_STACK,
                miss.key + '\x1f' + "stack:" + std::to_string(s.depth) +
                    '/' + std::to_string(job.config.memLatencyCycles) +
                    '/' + std::to_string(job.config.streamHitCycles),
                i, &miss);
        } else {
            runs = &miss;
        }
        runs->readers.push_back(i);
    }

    // Every node was declared after its input, so walking backwards
    // decides each one after everything that reads it.
    const TraceCache &store = TraceCache::instance();
    for (auto it = plan.nodes.rbegin(); it != plan.nodes.rend(); ++it) {
        Node &node = *it;
        const std::size_t readers = node.readers.size() + node.builders;
        const bool resident =
            use_store && readers > 0 &&
            ((node.kind == Kind::REF_TRACE &&
              store.peek<MaterializedTrace>(node.key)) ||
             (node.kind == Kind::MISS_TRACE &&
              store.peek<MissTrace>(node.key)));
        node.build =
            node.required || (use_store && (readers >= 2 || resident));
        if (node.build && node.kind == Kind::STREAM_STACK)
            node.input->required = true;
        if (node.build && !resident && node.input)
            ++node.input->builders;
        if (!node.build && node.input) {
            // An unrecorded MissTrace: its replayers read the source.
            for (std::size_t i : node.readers) {
                node.input->readers.push_back(i);
                plan.runs[i] = node.input;
            }
        }
    }

    auto build = [&](Node &node) {
        const SweepJob &job = jobs[node.producer];
        switch (node.kind) {
          case Kind::REF_TRACE:
            node.trace = obtainArtifact<MaterializedTrace>(
                use_store, node.key, [&job] {
                    return MaterializedTrace::fromSource(*job.makeSource());
                });
            break;
          case Kind::MISS_TRACE:
            node.miss = obtainArtifact<MissTrace>(
                use_store, node.key, [&node, &job] {
                    return std::make_shared<const MissTrace>(recordMissTrace(
                        *openInput(node.input->trace, job), job.config));
                });
            break;
          case Kind::SAMPLING_PLAN:
            node.sampling = obtainArtifact<SamplingPlan>(
                use_store, node.key, [&node, &profile_config] {
                    return std::make_shared<const SamplingPlan>(
                        buildSamplingPlan(*node.input->trace,
                                          profile_config));
                });
            break;
          case Kind::STREAM_STACK: {
            std::vector<std::uint32_t> counts;
            for (std::size_t i : node.readers)
                counts.push_back(jobs[i].config.streams.numStreams);
            node.answered =
                runStreamStack(*node.input->miss, job.config, counts);
            // A diverged count replays the trace in the job phase.
            for (std::uint32_t k : counts) {
                if (!node.answered.contains(k))
                    node.miss = node.input->miss;
            }
            break;
          }
        }
    };
    for (int level = 0; level < kLevels; ++level) {
        std::vector<Node *> todo;
        for (Node &node : plan.nodes) {
            if (node.build && node.level == level)
                todo.push_back(&node);
        }
        parallelFor(todo.size(), workers,
                    [&](std::size_t k) { build(*todo[k]); });
    }

    // Traces no job reads go before any job runs.
    for (Node &node : plan.nodes) {
        if (node.readers.empty()) {
            node.trace.reset();
            node.miss.reset();
        }
    }
    return plan;
}

/**
 * The one build-run-collect step of every simulated run: build
 * @p config's system, attach @p events and, for an analytic
 * @p l2_model, a live profiler on the L2 port (secondaryDemand, which
 * a replay feeds every DEMAND record); replay @p replay when there is
 * one, else run @p src; collect the output with its input's
 * TimeSampler counts and the analytic report; then let @p inspect
 * peek at the finished system.
 */
RunOutput
simulate(const MemorySystemConfig &config, const MissTrace *replay,
         TraceSource *src, EventTrace *events,
         L2ModelKind l2_model = L2ModelKind::SIMULATED,
         const std::function<void(MemorySystem &)> &inspect = {})
{
    MemorySystem system(config);
    if (events)
        system.attachEventTrace(events);
    std::unique_ptr<ReuseProfiler> profile;
    if (l2_model != L2ModelKind::SIMULATED) {
        profile = makeL2Profiler({config.l2});
        system.attachReuseProfiler(profile.get());
    }
    std::optional<SamplerCounts> sampler;
    if (replay) {
        system.replayMissTrace(*replay);
        sampler = replay->summary().samplerCounts;
    } else {
        system.run(*src);
        sampler = src->samplerCounts();
    }
    RunOutput out = collectOutput(system);
    out.sampling.timeSampler = sampler.value_or(SamplerCounts{});
    if (profile)
        reportAnalyticL2(out, *profile, l2_model, config);
    if (inspect)
        inspect(system);
    return out;
}

/**
 * The executor: serve @p job into @p out from @p in, the node its plan
 * runs it from. A sampled job runs its SamplingPlan's intervals; a
 * stream count its StreamStack answered is copied into the slot; any
 * other job is simulated, replaying @p in's MissTrace when it has one,
 * else running @p in's RefTrace or, without one, the job's own source.
 */
void
executeJob(const SweepJob &job, const Node *in, RunOutput &out,
           const std::function<void(MemorySystem &)> &inspect = {})
{
    if (in && in->sampling) {
        out = runSampled(in->input->trace, *in->sampling, job.config);
        return;
    }
    const bool stack = in && in->kind == Kind::STREAM_STACK;
    if (stack) {
        auto it = in->answered.find(job.config.streams.numStreams);
        if (it != in->answered.end()) {
            TraceCache::instance().noteStackJob();
            out = it->second;
            return;
        }
    }
    const MissTrace *replay = in ? in->miss.get() : nullptr;
    std::unique_ptr<TraceSource> src;
    if (replay)
        TraceCache::instance().noteReplay(stack);
    else
        src = openInput(in ? in->trace : nullptr, job);
    out = simulate(job.config, replay, src.get(), job.eventTrace,
                   job.l2Model, inspect);
}

} // namespace

SweepJob
benchmarkJob(const std::string &benchmark_name, ScaleLevel level,
             const MemorySystemConfig &config, std::string label,
             std::uint64_t ref_limit, bool time_sample)
{
    SweepJob job;
    job.label = label.empty() ? benchmark_name : std::move(label);
    job.config = config;
    // The source key names the exact reference sequence the factory
    // below produces; jobs built from the same arguments share it (and
    // therefore one materialised trace / one recording per front end).
    job.sourceKey = "bench|" + benchmark_name + '|' +
                    std::to_string(static_cast<int>(level)) + '|' +
                    std::to_string(ref_limit) + '|' +
                    (time_sample ? "ts" : "full");
    // Registry entries are static, so the resolved reference outlives
    // every closure, and the name is looked up once, not per factory
    // call.
    const Benchmark &benchmark = findBenchmark(benchmark_name);
    job.makeSource = [&benchmark, level, ref_limit,
                      time_sample]() -> std::unique_ptr<TraceSource> {
        auto chain = std::make_unique<OwningSourceChain>();
        TraceSource *base = &chain->add(benchmark.makeWorkload(level));
        if (time_sample) {
            base = &chain->add(
                std::make_unique<TimeSampler>(*base, 10000, 90000));
        }
        chain->add(std::make_unique<TruncatingSource>(*base, ref_limit));
        return chain;
    };
    return job;
}

void
parallelFor(std::size_t count, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    unsigned workers = jobs == 0 ? SweepRunner::defaultJobs() : jobs;
    if (SweepRunner::serialForced())
        workers = 1;
    if (workers > count)
        workers = static_cast<unsigned>(count);

    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    ErrorCollector errors;

    auto body = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                errors.capture();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(body);
    for (std::thread &t : pool)
        t.join();
    errors.rethrowIfAny();
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs),
      heartbeat_(envBool("SBSIM_PROGRESS").value_or(false)),
      traceCache_(envBool("SBSIM_TRACE_CACHE").value_or(true)),
      cacheReport_(envBool("SBSIM_CACHE_REPORT").value_or(true))
{}

std::string
missTraceKey(const std::string &source_key,
             const MemorySystemConfig &config)
{
    // 0x1f (ASCII unit separator) cannot appear in either component,
    // so distinct (source, front end) pairs never collide.
    return source_key + '\x1f' + frontEndKey(config);
}


std::string
samplingPlanKey(const std::string &source_key,
                const PhaseProfileConfig &config)
{
    return source_key + '\x1f' + config.key();
}

RunOutput
runOnce(TraceSource &src, const MemorySystemConfig &config,
        EventTrace *events)
{
    return simulate(config, nullptr, &src, events);
}

RunOutput
replayOnce(const MissTrace &trace, const MemorySystemConfig &config)
{
    return simulate(config, &trace, nullptr, nullptr);
}

RunOutput
runJob(const SweepJob &job, bool use_store,
       const std::function<void(MemorySystem &)> &inspect)
{
    SBSIM_ASSERT(!inspect || !use_store,
                 "inspecting a job needs its own front end: store off");
    const Plan plan = planSweep({&job, 1}, 1, use_store);
    RunOutput out;
    executeJob(job, plan.runs[0], out, inspect);
    return out;
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepJob> &jobs) const
{
    // Results live in pre-sized slots indexed by submission order, so
    // completion order never matters.
    std::vector<SweepResult> results(jobs.size());
    const Plan plan = planSweep(jobs, jobs_, traceCache_);

    // Heartbeat bookkeeping: integral atomics only (the derived rate
    // is computed at print time), stderr only, so the simulation
    // results cannot observe it.
    std::atomic<std::size_t> jobs_done{0};
    std::atomic<std::uint64_t> refs_done{0};
    double heartbeat_elapsed = 0;
    ScopedTimer heartbeat_timer(heartbeat_elapsed);
    HeartbeatPrinter heartbeat_printer;

    parallelFor(jobs.size(), jobs_, [&](std::size_t i) {
        const SweepJob &job = jobs[i];
        SweepResult &res = results[i];
        res.label = job.label;
        {
            ScopedTimer timer(res.wallSeconds);
            executeJob(job, plan.runs[i], res.output);
        }
        res.references = res.output.results.references;
        res.refsPerSecond = res.wallSeconds > 0
                                ? static_cast<double>(res.references) /
                                      res.wallSeconds
                                : 0.0;
        if (heartbeat_) {
            std::size_t done = jobs_done.fetch_add(1) + 1;
            std::uint64_t refs =
                refs_done.fetch_add(res.references) + res.references;
            double elapsed = heartbeat_timer.elapsedSeconds();
            double rate =
                elapsed > 0 ? static_cast<double>(refs) / elapsed : 0.0;
            heartbeat_printer.printProgress(done, jobs.size(), refs,
                                            rate);
        }
    });
    if (cacheReport_ && traceCache_)
        printTraceCacheReport(TraceCache::instance().stats(), stderr);
    return results;
}


unsigned
SweepRunner::defaultJobs()
{
    if (std::optional<std::uint64_t> v =
            envUnsigned("SBSIM_JOBS", 1, 1024)) {
        return static_cast<unsigned>(*v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

bool
SweepRunner::serialForced()
{
    return envBool("SBSIM_SERIAL").value_or(false);
}

void
writeSweepJson(const std::vector<SweepResult> &results, std::ostream &os,
               const TraceCacheStats *cache_stats)
{
    os << "{\"schema\":\"streamsim-metrics\",\"schema_version\":"
       << kMetricsSchemaVersion << ",\"kind\":\"sweep\",\"jobs\":[";
    std::uint64_t total_refs = 0;
    double total_wall = 0;
    bool first = true;
    for (const SweepResult &r : results) {
        if (!first)
            os << ',';
        first = false;
        total_refs += r.references;
        total_wall = total_wall + r.wallSeconds;
        os << "{\"label\":" << jsonQuote(r.label)
           << ",\"references\":" << r.references
           << ",\"wall_seconds\":" << jsonNumber(r.wallSeconds)
           << ",\"refs_per_second\":" << jsonNumber(r.refsPerSecond)
           << ",\"sections\":";
        runMetrics(r.output).writeJsonSections(os);
        os << '}';
    }
    double rate = total_wall > 0
                      ? static_cast<double>(total_refs) / total_wall
                      : 0.0;
    os << "],\"aggregate\":{\"jobs\":" << results.size()
       << ",\"references\":" << total_refs
       << ",\"wall_seconds\":" << jsonNumber(total_wall)
       << ",\"refs_per_second\":" << jsonNumber(rate);
    if (cache_stats) {
        os << ",\"trace_cache\":";
        writeTraceCacheJson(*cache_stats, os);
    }
    os << "}}\n";
}

void
writeSweepJson(const std::vector<SweepResult> &results, std::ostream &os,
               const SweepRunner &runner)
{
    if (!runner.traceCacheEnabled()) {
        writeSweepJson(results, os);
        return;
    }
    const TraceCacheStats stats = TraceCache::instance().stats();
    writeSweepJson(results, os, &stats);
}

void
writeSweepCsv(const std::vector<SweepResult> &results, std::ostream &os)
{
    // Header from the first job's registry; every job of a sweep runs
    // the same exporter so the flattened field set is identical.
    os << "label,references,wall_seconds,refs_per_second";
    std::vector<std::string> names;
    if (!results.empty())
        names = runMetrics(results.front().output).flatFieldNames();
    for (const std::string &n : names)
        os << ',' << csvQuote(n);
    os << '\n';

    std::uint64_t total_refs = 0;
    double total_wall = 0;
    for (const SweepResult &r : results) {
        total_refs += r.references;
        total_wall = total_wall + r.wallSeconds;
        os << csvQuote(r.label) << ',' << r.references << ','
           << jsonNumber(r.wallSeconds) << ','
           << jsonNumber(r.refsPerSecond);
        for (const std::string &cell :
             runMetrics(r.output).flatFieldValues()) {
            os << ',' << csvQuote(cell);
        }
        os << '\n';
    }
    double rate = total_wall > 0
                      ? static_cast<double>(total_refs) / total_wall
                      : 0.0;
    os << "aggregate," << total_refs << ',' << jsonNumber(total_wall)
       << ',' << jsonNumber(rate);
    for (std::size_t i = 0; i < names.size(); ++i)
        os << ',';
    os << '\n';
}

} // namespace sbsim
