#include "sweep_runner.hh"

#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <thread>
#include <cmath>
#include <utility>

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

/**
 * The job's input as a materialised trace: its materialising producer
 * when it has one (that attaches drain-time TimeSampler counts), else
 * a drain of its factory's source.
 */
std::shared_ptr<const MaterializedTrace>
materializeInput(const SweepJob &job)
{
    if (job.materialize)
        return job.materialize();
    std::unique_ptr<TraceSource> src = job.makeSource();
    return MaterializedTrace::fromSource(*src);
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
    // every closure; capturing it also moves the name lookup out of
    // the factory (it used to re-run findBenchmark per invocation on a
    // per-closure copy of the string).
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
      traceCache_(TraceCache::enabledByEnv()),
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

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepJob> &jobs) const
{
    // Results live in pre-sized slots indexed by submission order, so
    // completion order never matters.
    std::vector<SweepResult> results(jobs.size());

    // --- Plan: decide per job how it will be serviced. Purely a
    // throughput decision — every mode is pinned bit-identical to
    // NAIVE by tests/test_sweep_runner.cc and tests/test_miss_trace.cc.
    enum class Mode { NAIVE, SHARED_VIEW, REPLAY, SAMPLED };
    struct Plan
    {
        Mode mode = Mode::NAIVE;
        std::shared_ptr<const MaterializedTrace> trace;
        std::shared_ptr<const MissTrace> miss;
        std::shared_ptr<const SamplingPlan> sampling;
    };
    std::vector<Plan> plans(jobs.size());

    // Pre-recorded miss traces are an explicit caller request, honoured
    // independently of the cache toggle (event-traced jobs excepted:
    // replay cannot re-emit front-end events; sampled jobs excepted:
    // they are serviced by their sampling plan below).
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].missTrace && !jobs[i].eventTrace &&
            jobs[i].fidelity == Fidelity::EXACT)
            plans[i] = {Mode::REPLAY, nullptr, jobs[i].missTrace, nullptr};
    }

    if (traceCache_) {
        TraceCache &cache = TraceCache::instance();

        // Group the remaining keyed jobs into replay families (one
        // recording per (source, front end) pair) and view-only jobs
        // (event capture needs the raw reference stream).
        struct Family
        {
            std::vector<std::size_t> members;
            bool record = false;
        };
        std::map<std::string, Family> families;
        std::vector<std::size_t> viewOnly;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const SweepJob &job = jobs[i];
            if (plans[i].mode == Mode::REPLAY || job.sourceKey.empty())
                continue;
            // Sampled jobs are planned separately: they need the whole
            // materialised trace, not a view or a miss-stream replay.
            if (job.fidelity == Fidelity::SAMPLED)
                continue;
            if (job.eventTrace) {
                viewOnly.push_back(i);
                continue;
            }
            families[missTraceKey(job.sourceKey, job.config)]
                .members.push_back(i);
        }

        // A family records when replay amortises (>= 2 members) or the
        // recording is already resident; singleton families instead
        // fall through to sharing the raw reference trace.
        for (auto &entry : families) {
            Family &fam = entry.second;
            fam.record = fam.members.size() >= 2 ||
                         cache.lookupMissTrace(entry.first) != nullptr;
        }

        // Count prospective readers per source key; materialise when
        // at least two would otherwise regenerate the same stream, or
        // when the trace is already resident (reuse is then free).
        std::map<std::string, std::size_t> readers;
        for (std::size_t i : viewOnly)
            ++readers[jobs[i].sourceKey];
        for (const auto &entry : families) {
            const Family &fam = entry.second;
            const SweepJob &leader = jobs[fam.members.front()];
            if (fam.record) {
                if (!cache.lookupMissTrace(entry.first))
                    ++readers[leader.sourceKey];
            } else {
                readers[leader.sourceKey] += fam.members.size();
            }
        }
        std::vector<std::string> to_materialize;
        for (const auto &entry : readers) {
            if (entry.second >= 2 || cache.lookupRefTrace(entry.first))
                to_materialize.push_back(entry.first);
        }

        // Representative factory per source key (factories that share
        // a key are interchangeable by the SweepJob contract).
        std::map<std::string, std::size_t> factory_job;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (!jobs[i].sourceKey.empty() && jobs[i].makeSource)
                factory_job.emplace(jobs[i].sourceKey, i);
        }

        // Phase A: materialise shared reference traces in parallel.
        std::vector<std::shared_ptr<const MaterializedTrace>> mats(
            to_materialize.size());
        parallelFor(to_materialize.size(), jobs_, [&](std::size_t k) {
            const std::string &key = to_materialize[k];
            const SweepJob &rep = jobs[factory_job.at(key)];
            mats[k] = cache.getOrMaterializeTrace(
                key, [&rep] { return materializeInput(rep); });
        });
        std::map<std::string, std::shared_ptr<const MaterializedTrace>>
            mat_traces;
        for (std::size_t k = 0; k < to_materialize.size(); ++k)
            mat_traces.emplace(to_materialize[k], mats[k]);

        // Phase B: record one miss trace per recording family, reading
        // from the shared reference trace when one exists.
        std::vector<const Family *> rec_fams;
        std::vector<const std::string *> rec_keys;
        for (const auto &entry : families) {
            if (entry.second.record) {
                rec_keys.push_back(&entry.first);
                rec_fams.push_back(&entry.second);
            }
        }
        std::vector<std::shared_ptr<const MissTrace>> misses(
            rec_fams.size());
        parallelFor(rec_fams.size(), jobs_, [&](std::size_t k) {
            const SweepJob &leader = jobs[rec_fams[k]->members.front()];
            misses[k] = cache.getOrRecord(*rec_keys[k], [&]() {
                auto it = mat_traces.find(leader.sourceKey);
                if (it != mat_traces.end()) {
                    SharedTraceView view(it->second);
                    return recordMissTrace(view, leader.config);
                }
                std::unique_ptr<TraceSource> src = leader.makeSource();
                return recordMissTrace(*src, leader.config);
            });
        });
        for (std::size_t k = 0; k < rec_fams.size(); ++k) {
            for (std::size_t i : rec_fams[k]->members)
                plans[i] = {Mode::REPLAY, nullptr, misses[k], nullptr};
        }

        // Everything left rides the shared reference trace when its
        // key was materialised; otherwise it stays NAIVE.
        auto assign_view = [&](std::size_t i) {
            auto it = mat_traces.find(jobs[i].sourceKey);
            if (it != mat_traces.end())
                plans[i] = {Mode::SHARED_VIEW, it->second, nullptr,
                            nullptr};
        };
        for (std::size_t i : viewOnly)
            assign_view(i);
        for (const auto &entry : families) {
            if (!entry.second.record) {
                for (std::size_t i : entry.second.members)
                    assign_view(i);
            }
        }
    }

    // --- Sampled-fidelity plan: one materialised trace and one
    // sampling plan per (source key, profile config) group, shared by
    // every sampled job over the same input — the sampled analogue of
    // the miss-trace families above. With the cache enabled both live
    // in the TraceCache (so the sweep service reuses them across
    // requests); otherwise they are built once per group, locally.
    {
        struct SampleGroup
        {
            std::vector<std::size_t> members;
        };
        std::map<std::string, SampleGroup> sgroups;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (jobs[i].fidelity != Fidelity::SAMPLED)
                continue;
            SBSIM_ASSERT(!jobs[i].eventTrace,
                         "sampled jobs cannot capture event traces");
            // Keyless jobs opted out of reuse; one group each (0x1f
            // prefix cannot collide with real keys).
            std::string key = jobs[i].sourceKey.empty()
                                  ? '\x1f' + std::to_string(i)
                                  : jobs[i].sourceKey;
            sgroups[key].members.push_back(i);
        }
        std::vector<std::pair<const std::string *, SampleGroup *>>
            sgroup_list;
        sgroup_list.reserve(sgroups.size());
        for (auto &entry : sgroups)
            sgroup_list.emplace_back(&entry.first, &entry.second);
        parallelFor(sgroup_list.size(), jobs_, [&](std::size_t k) {
            const std::string &key = *sgroup_list[k].first;
            SampleGroup &group = *sgroup_list[k].second;
            const SweepJob &leader = jobs[group.members.front()];
            const bool cached = traceCache_ && !leader.sourceKey.empty();
            auto produce = [&leader] { return materializeInput(leader); };
            std::shared_ptr<const MaterializedTrace> trace =
                cached ? TraceCache::instance().getOrMaterializeTrace(
                             key, produce)
                       : produce();
            const PhaseProfileConfig profile_config;
            auto build = [&trace, &profile_config] {
                return buildSamplingPlan(*trace, profile_config);
            };
            std::shared_ptr<const SamplingPlan> plan =
                cached ? TraceCache::instance().getOrBuildPlan(
                             key + '\x1f' + profile_config.key(), build)
                       : std::make_shared<const SamplingPlan>(build());
            for (std::size_t i : group.members)
                plans[i] = {Mode::SAMPLED, trace, nullptr, plan};
        });
    }

    // --- Analytic L2 profiling plan: one reuse-distance profile per
    // (miss stream, L2 block size) group, shared by every member job
    // requesting --l2-model=analytic|both. A group's stream comes, in
    // preference order, from a member's already-planned replay trace,
    // the trace cache, or an ad-hoc recording. Evaluation afterwards
    // is closed-form per job — the "fan the evaluation out for free"
    // half of the one-pass engine.
    std::vector<std::shared_ptr<const ReuseProfiler>> profiles(
        jobs.size());
    {
        struct ProfileGroup
        {
            std::vector<std::size_t> members;
            std::shared_ptr<const MissTrace> miss;
        };
        std::map<std::string, ProfileGroup> groups;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            // Sampled jobs never profile: the analytic model needs the
            // full miss stream (both front ends reject the combo).
            if (jobs[i].l2Model == L2ModelKind::SIMULATED ||
                jobs[i].fidelity == Fidelity::SAMPLED)
                continue;
            // Keyless jobs opted out of trace reuse; give each its
            // own group (0x1f prefix cannot collide with real keys).
            std::string key =
                jobs[i].sourceKey.empty()
                    ? '\x1f' + std::to_string(i)
                    : missTraceKey(jobs[i].sourceKey, jobs[i].config) +
                          '\x1f' +
                          std::to_string(jobs[i].config.l2.blockSize);
            ProfileGroup &group = groups[key];
            group.members.push_back(i);
            if (!group.miss && plans[i].miss)
                group.miss = plans[i].miss;
        }
        std::vector<ProfileGroup *> group_list;
        group_list.reserve(groups.size());
        for (auto &entry : groups)
            group_list.push_back(&entry.second);
        std::vector<std::shared_ptr<const ReuseProfiler>> built(
            group_list.size());
        parallelFor(group_list.size(), jobs_, [&](std::size_t k) {
            ProfileGroup &group = *group_list[k];
            const SweepJob &leader = jobs[group.members.front()];
            std::shared_ptr<const MissTrace> miss = group.miss;
            if (!miss && traceCache_ && !leader.sourceKey.empty()) {
                miss = TraceCache::instance().getOrRecord(
                    missTraceKey(leader.sourceKey, leader.config),
                    [&]() {
                        auto src = leader.makeSource();
                        return recordMissTrace(*src, leader.config);
                    });
            }
            if (!miss) {
                auto src = leader.makeSource();
                miss = std::make_shared<const MissTrace>(
                    recordMissTrace(*src, leader.config));
            }
            // Register every member's L2 geometry as an exact
            // conflict class before the single profiling pass (the
            // group key fixes the block size, not size/assoc); when
            // the classes cover all members, the profiler skips the
            // distance histogram — the classes answer every query.
            bool all_covered = true;
            for (std::size_t i : group.members) {
                const CacheConfig &l2 = jobs[i].config.l2;
                all_covered = all_covered && l2.numSets() > 1 &&
                              l2.assoc <= 16;
            }
            auto profiler = std::make_shared<ReuseProfiler>(
                leader.config.l2.blockSize,
                /*track_distances=*/!all_covered);
            for (std::size_t i : group.members) {
                const CacheConfig &l2 = jobs[i].config.l2;
                if (l2.numSets() > 1 && l2.assoc <= 16)
                    profiler->trackGeometry(
                        static_cast<std::uint32_t>(l2.numSets()),
                        l2.assoc);
            }
            profileMissTraceInto(*profiler, *miss);
            built[k] = std::move(profiler);
        });
        for (std::size_t k = 0; k < group_list.size(); ++k) {
            for (std::size_t i : group_list[k]->members)
                profiles[i] = built[k];
        }
    }

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
        const Plan &plan = plans[i];
        SweepResult &res = results[i];
        res.label = job.label;
        {
            ScopedTimer timer(res.wallSeconds);
            if (plan.mode == Mode::SAMPLED) {
                res.output =
                    runSampled(plan.trace, *plan.sampling, job.config);
            } else if (plan.mode == Mode::REPLAY) {
                TraceCache::instance().noteReplay();
                res.output = replayOnce(*plan.miss, job.config);
            } else if (plan.mode == Mode::SHARED_VIEW) {
                SharedTraceView view(plan.trace);
                res.output = runOnce(view, job.config, job.eventTrace);
            } else {
                std::unique_ptr<TraceSource> src = job.makeSource();
                res.output = runOnce(*src, job.config, job.eventTrace);
            }
        }
        if (job.l2Model != L2ModelKind::SIMULATED && profiles[i]) {
            const ReuseProfiler &prof = *profiles[i];
            AnalyticL2Model model(prof);
            L2AnalyticReport &rep = res.output.l2Analytic;
            rep.model = toString(job.l2Model);
            rep.predictedMissRatioPct =
                model.predictMissRatioPercent(job.config.l2);
            rep.predictedHitRatePct =
                model.predictLocalHitRatePercent(job.config.l2);
            rep.profiledMisses = prof.references();
            rep.uniqueBlocks = prof.uniqueBlocks();
            if (job.l2Model == L2ModelKind::BOTH && job.config.useL2 &&
                prof.references() > 0) {
                rep.simulatedMissRatioPct =
                    100.0 - res.output.results.l2LocalHitRatePercent;
                rep.absErrorPct = std::abs(rep.predictedMissRatioPct -
                                           rep.simulatedMissRatioPct);
            }
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
    // The effectiveness report has its own toggle: it used to ride
    // heartbeat_, which silently dropped it from every cache-enabled
    // run that did not also ask for progress output.
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
        os << ",\"trace_cache\":{\"ref_trace_hits\":"
           << cache_stats->refTraceHits
           << ",\"ref_traces_materialized\":"
           << cache_stats->refTracesMaterialized
           << ",\"miss_trace_hits\":" << cache_stats->missTraceHits
           << ",\"miss_traces_recorded\":"
           << cache_stats->missTracesRecorded
           << ",\"phase_plan_hits\":" << cache_stats->phasePlanHits
           << ",\"phase_plans_built\":" << cache_stats->phasePlansBuilt
           << ",\"replays\":" << cache_stats->replays
           << ",\"resident_bytes\":" << cache_stats->residentBytes
           << ",\"expired_purged\":" << cache_stats->expiredPurged
           << ",\"ref_trace_entries\":" << cache_stats->refTraceEntries
           << ",\"miss_trace_entries\":"
           << cache_stats->missTraceEntries
           << ",\"phase_plan_entries\":"
           << cache_stats->phasePlanEntries << '}';
    }
    os << "}}\n";
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
