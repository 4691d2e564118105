#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "bench_common.hh"
#include "layers.hh"
#include "service/run_spec.hh"
#include "trace/trace_cache.hh"
#include "util/metrics.hh"

namespace perfbench {

using namespace sbsim;

void
Report::writeJson(std::ostream &os) const
{
    auto map_json = [&os](const std::map<std::string, double> &m) {
        os << '{';
        bool first = true;
        for (const auto &[k, v] : m) {
            os << (first ? "" : ",") << jsonQuote(k) << ':'
               << jsonNumber(v);
            first = false;
        }
        os << '}';
    };
    os << "{\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const RepSample &r = reps[i];
        os << (i ? "," : "") << "{\"refs\":" << jsonNumber(r.refs)
           << ",\"ops\":" << jsonNumber(r.ops)
           << ",\"wall_s\":" << jsonNumber(r.wallS)
           << ",\"cpu_s\":" << jsonNumber(r.cpuS)
           << ",\"rss_kb\":" << jsonNumber(r.rssKb) << '}';
    }
    os << "],\"latencies_ms\":[";
    for (std::size_t i = 0; i < latenciesMs.size(); ++i)
        os << (i ? "," : "") << jsonNumber(latenciesMs[i]);
    os << "],\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"accuracy\":";
    map_json(accuracy);
    os << ",\"layers\":";
    map_json(layers);
    os << ",\"digest\":" << jsonQuote(digest) << ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        os << (i ? "," : "") << jsonQuote(errors[i]);
    os << "]}\n";
}

namespace {

/** Measurements of one timed window. */
struct Window
{
    std::vector<RepSample> reps;
    std::vector<double> latenciesMs;

    double
    cpuPerRep() const
    {
        double cpu = 0;
        for (const RepSample &r : reps)
            cpu += r.cpuS;
        return reps.empty() ? 0 : cpu / reps.size();
    }

    double
    wallPerRep() const
    {
        double wall = 0;
        for (const RepSample &r : reps)
            wall += r.wallS;
        return reps.empty() ? 0 : wall / reps.size();
    }
};

/**
 * Runs a decomposition one input at a time, each input twice in a
 * row: once with a disabled recorder and once with @p spans, the
 * untraced pass first for every other input, so that neither gains
 * from running second. The share by which the traced passes take
 * longer is what the spans cost.
 */
class TracedPasses
{
  public:
    explicit TracedPasses(SpanRecorder &spans) : spans_(spans) {}

    /** @p pass(recorder) decomposes one input. */
    template <typename Pass>
    void
    run(Pass &&pass)
    {
        SpanRecorder off(false);
        const bool off_first = inputs_++ % 2 == 0;
        const std::int64_t t0 = nowNs();
        pass(off_first ? off : spans_);
        const std::int64_t t1 = nowNs();
        pass(off_first ? spans_ : off);
        const std::int64_t t2 = nowNs();
        offNs_ += off_first ? t1 - t0 : t2 - t1;
        onNs_ += off_first ? t2 - t1 : t1 - t0;
    }

    /** Traced over untraced wall time, minus one. */
    double
    overhead() const
    {
        return offNs_ > 0 ? static_cast<double>(onNs_) / offNs_ - 1 : 0;
    }

  private:
    SpanRecorder &spans_;
    std::uint64_t inputs_ = 0;
    std::int64_t offNs_ = 0;
    std::int64_t onNs_ = 0;
};

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** ns per item of a span name's self time; 0 when it never ran. */
double
nsPerItem(const std::map<std::string, LayerTotal> &t, const char *name)
{
    auto it = t.find(name);
    if (it == t.end() || it->second.items == 0)
        return 0;
    return static_cast<double>(it->second.selfNs) /
           static_cast<double>(it->second.items);
}

double
selfNs(const std::map<std::string, LayerTotal> &t, const char *name)
{
    auto it = t.find(name);
    return it == t.end() ? 0.0 : static_cast<double>(it->second.selfNs);
}

/** The layer metrics every decomposition produces, from span totals. */
void
commonLayers(Report &rep, const std::map<std::string, LayerTotal> &t)
{
    rep.layers["workloads.gen_ns_per_ref"] =
        nsPerItem(t, "workloads.generate");
    rep.layers["mem.translate_ns_per_ref"] = nsPerItem(t, "mem.translate");
    rep.layers["trace.deliver_ns_per_ref"] = nsPerItem(t, "trace.deliver");
    rep.layers["trace.materialize_ns_per_ref"] =
        nsPerItem(t, "trace.materialize");
    rep.layers["trace.phase_profile_ns_per_ref"] =
        nsPerItem(t, "trace.phase_profile");
    rep.layers["cache.l1_ns_per_ref"] = nsPerItem(t, "cache.l1");
    rep.layers["stream.engine_ns_per_miss.always"] =
        nsPerItem(t, "stream.engine.always");
    rep.layers["stream.engine_ns_per_miss.unit_filter"] =
        nsPerItem(t, "stream.engine.unit_filter");
    rep.layers["stream.engine_ns_per_miss.czone"] =
        nsPerItem(t, "stream.engine.czone");
    rep.layers["sim.record_ns_per_ref"] = nsPerItem(t, "sim.record");
    rep.layers["sim.replay_ns_per_miss"] = nsPerItem(t, "sim.replay");
    rep.layers["sim.analytic_ns_per_miss"] = nsPerItem(t, "sim.analytic");
}

/** The engine configurations the stream layer is measured under:
 *  allocate on every miss, unit filter, unit filter + czone. */
StreamEngineConfig
engineVariant(const StreamEngineConfig &base, AllocationPolicy alloc,
              StrideDetection stride)
{
    StreamEngineConfig c = base;
    c.allocation = alloc;
    c.strideDetection = stride;
    return c;
}

void
enginesTraced(SpanRecorder &spans, std::uint64_t group,
              const MissTrace &miss, const StreamEngineConfig &base)
{
    engineTraced(spans, group, "stream.engine.always", miss,
                 engineVariant(base, AllocationPolicy::ALWAYS,
                               StrideDetection::NONE));
    engineTraced(spans, group, "stream.engine.unit_filter", miss,
                 engineVariant(base, AllocationPolicy::UNIT_FILTER,
                               StrideDetection::NONE));
    engineTraced(spans, group, "stream.engine.czone", miss,
                 engineVariant(base, AllocationPolicy::UNIT_FILTER,
                               StrideDetection::CZONE));
}

void
writeSpans(const Options &opt, const SpanRecorder &spans)
{
    if (opt.spansOut.empty())
        return;
    std::ofstream out(opt.spansOut);
    spans.writeJsonLines(out);
}

/** Thread-safe failure log. */
class Failures
{
  public:
    void
    add(Report &rep, std::uint64_t n, const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rep.failed += n;
        if (rep.errors.size() < 20)
            rep.errors.push_back(what);
    }

  private:
    std::mutex mutex_;
};

} // namespace

// ---------------------------------------------------------------- paper

Report
runPaperSweeps(const std::vector<PaperJob> &pjobs, const Options &opt,
               const std::function<void()> &ready)
{
    Report rep;
    Failures failures;
    std::vector<SweepJob> jobs;
    jobs.reserve(pjobs.size());
    for (const PaperJob &p : pjobs)
        jobs.push_back(p.sweepJob());
    SweepRunner runner(opt.workers);
    runner.setHeartbeat(false);
    runner.setCacheReport(false);
    runner.setTraceCacheEnabled(true);
    ready();

    std::vector<std::string> firstDocs;
    std::uint64_t reps = 0;
    TraceCacheStats cacheSum;
    std::uint64_t lookups = 0, l1Misses = 0;

    // One repetition: a fresh sweep process's work, so the cache is
    // cleared first, before the clock starts.
    auto repetition = [&](Window *w, bool count_cache) {
        TraceCache::instance().clear();
        resetPeakRss();
        const double c0 = processCpuSeconds();
        const std::int64_t t0 = nowNs();
        std::vector<SweepResult> results;
        std::uint64_t refs = 0;
        try {
            results = runner.run(jobs);
            for (const SweepResult &r : results)
                refs += r.references;
        } catch (const std::exception &e) {
            // Every job of a failed sweep counts as failed.
            failures.add(rep, jobs.size(), std::string("sweep: ") + e.what());
            rep.attempted += jobs.size();
            ++reps;
            return;
        }
        const std::int64_t t1 = nowNs();
        const double c1 = processCpuSeconds();
        if (w) {
            // A sweep job is the request here: its latency is its
            // service time in the pool, as the runner reports it.
            w->reps.push_back({static_cast<double>(refs),
                               static_cast<double>(results.size()),
                               (t1 - t0) * 1e-9, c1 - c0, peakRssKb()});
            for (const SweepResult &r : results)
                w->latenciesMs.push_back(r.wallSeconds * 1e3);
        }
        if (count_cache) {
            TraceCacheStats s = TraceCache::instance().stats();
            cacheSum.refTraceHits += s.refTraceHits;
            cacheSum.refTracesMaterialized += s.refTracesMaterialized;
            cacheSum.missTraceHits += s.missTraceHits;
            cacheSum.missTracesRecorded += s.missTracesRecorded;
            cacheSum.phasePlanHits += s.phasePlanHits;
            cacheSum.phasePlansBuilt += s.phasePlansBuilt;
            cacheSum.replays += s.replays;
        }
        // Every repetition must reproduce the first one's documents.
        const bool first = firstDocs.empty();
        for (std::size_t i = 0; i < results.size(); ++i) {
            std::string doc = runDocument(results[i].output);
            if (first) {
                firstDocs.push_back(std::move(doc));
                lookups += results[i].output.engineStats.lookups;
                l1Misses += results[i].output.results.l1Misses;
            } else if (doc != firstDocs[i]) {
                failures.add(rep, 1,
                             jobs[i].label + ": repetition differs");
            }
        }
        rep.attempted += results.size();
        ++reps;
    };
    auto window = [&](bool count_cache) {
        Window w;
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
        do {
            repetition(&w, count_cache);
        } while (nowNs() < deadline);
        return w;
    };

    repetition(nullptr, false); // warm-up, untimed
    // The traced run reads the cache counters of this same window.
    Window untraced = window(opt.trace);
    rep.reps = untraced.reps;
    rep.latenciesMs = untraced.latenciesMs;

    // Reference: every job once more, naively (runOnce over a fresh
    // source, no trace cache), against the timed repetitions.
    std::vector<std::string> refDocs(jobs.size());
    std::vector<RunOutput> refOut(jobs.size());
    parallelFor(jobs.size(), opt.workers, [&](std::size_t i) {
        std::unique_ptr<TraceSource> src = pjobs[i].makeSource();
        refOut[i] = runOnce(*src, jobs[i].config);
        refDocs[i] = runDocument(refOut[i]);
    });
    if (firstDocs.size() != jobs.size())
        throw std::runtime_error("every sweep repetition failed");
    const std::uint64_t reps_so_far = reps;
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a,
                                              std::size_t b) {
        return jobs[a].label < jobs[b].label;
    });
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (std::size_t i : order) {
        if (refDocs[i] != firstDocs[i])
            failures.add(rep, reps_so_far,
                         jobs[i].label + ": differs from runOnce");
        digest = fnv1a(jobs[i].label + '\n' + refDocs[i] + '\n', digest);
    }
    rep.digest = hex(digest);

    // Fig. 3 at 10 streams against the paper's figure.
    double err = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < pjobs.size(); ++i) {
        if (pjobs[i].czone || pjobs[i].streams != 10)
            continue;
        auto ref = bench::paperReference(pjobs[i].benchmark);
        if (!ref)
            continue;
        err += std::abs(refOut[i].engineStats.hitRatePercent() -
                        ref->fig3HitRate);
        ++n;
    }
    rep.accuracy["paper_err_pts"] = n ? err / n : 0;

    if (!opt.trace)
        return rep;

    // ---- Traced run.
    rep.layers["trace.cache_ref_hit_ratio"] = ratio(
        cacheSum.refTraceHits,
        cacheSum.refTraceHits + cacheSum.refTracesMaterialized);
    rep.layers["trace.cache_miss_hit_ratio"] = ratio(
        cacheSum.missTraceHits,
        cacheSum.missTraceHits + cacheSum.missTracesRecorded);
    rep.layers["trace.cache_plan_hit_ratio"] = ratio(
        cacheSum.phasePlanHits,
        cacheSum.phasePlanHits + cacheSum.phasePlansBuilt);
    rep.layers["trace.replays_per_recording"] =
        ratio(cacheSum.replays, cacheSum.missTracesRecorded);
    rep.layers["trace.artifacts_built"] =
        ratio(cacheSum.refTracesMaterialized + cacheSum.missTracesRecorded +
                  cacheSum.phasePlansBuilt,
              static_cast<double>(untraced.reps.size()));
    rep.layers["cache.l1_misses"] = static_cast<double>(l1Misses);
    rep.layers["stream.lookups"] = static_cast<double>(lookups);

    // Decomposition: per input, generate -> materialize -> record ->
    // replay every job. The traced pass holds each artifact in the
    // trace cache for the primed sweep below.
    SpanRecorder spans(true);
    TracedPasses passes(spans);
    TraceCache &cache = TraceCache::instance();
    cache.clear();
    std::map<std::string, std::vector<std::size_t>> inputs;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        inputs[jobs[i].sourceKey].push_back(i);
    std::vector<std::shared_ptr<const MaterializedTrace>> heldTraces;
    std::vector<std::shared_ptr<const MissTrace>> heldMisses;
    std::uint64_t group = 0;
    for (const auto &[key, members] : inputs) {
        ++group;
        passes.run([&, &key = key, &members = members](SpanRecorder &rec) {
            const bool hold = rec.enabled();
            const PaperJob &lead = pjobs[members.front()];
            std::unique_ptr<TraceSource> src = lead.makeSource();
            std::shared_ptr<const MaterializedTrace> trace =
                materializeTraced(rec, group, *src);
            if (hold)
                heldTraces.push_back(
                    cache.getOrMaterializeTrace(key, [&] { return trace; }));
            deliverTraced(rec, group, trace);
            translateTraced(rec, group, *trace, lead.config());
            std::uint64_t l1m = l1Traced(rec, group, *trace, lead.config());
            rep.attempted += 1;
            if (l1m != refOut[members.front()].results.l1Misses)
                failures.add(rep, 1, key + ": SplitCache misses differ");
            std::map<std::string, std::shared_ptr<const MissTrace>> misses;
            for (std::size_t i : members) {
                const std::string mkey = missTraceKey(key, jobs[i].config);
                std::shared_ptr<const MissTrace> &miss = misses[mkey];
                if (!miss) {
                    MissTrace recorded =
                        recordTraced(rec, group, trace, jobs[i].config);
                    miss = hold ? cache.getOrRecord(mkey, [&] {
                        return std::move(recorded);
                    }) : std::make_shared<const MissTrace>(
                                   std::move(recorded));
                    if (hold)
                        heldMisses.push_back(miss);
                    enginesTraced(rec, group, *miss,
                                  paperSystemConfig(10).streams);
                }
                RunOutput out = replayTraced(rec, group, *miss,
                                             jobs[i].config);
                rep.attempted += 1;
                if (runDocument(out) != refDocs[i])
                    failures.add(rep, 1, jobs[i].label + ": replay differs");
            }
        });
    }
    rep.layers["bench.tracing_overhead_share"] = passes.overhead();
    // The same sweep with every artifact resident: what remains is
    // planning plus the job phase.
    std::vector<SweepResult> primed;
    const std::int64_t p0 = nowNs();
    {
        ScopedSpan span(spans, "sim.sweep_run_primed", 0);
        primed = runner.run(jobs);
    }
    const double primed_s = (nowNs() - p0) * 1e-9;
    double job_s = 0;
    for (std::size_t i = 0; i < primed.size(); ++i) {
        job_s += primed[i].wallSeconds;
        rep.attempted += 1;
        if (runDocument(primed[i].output) != refDocs[i])
            failures.add(rep, 1, jobs[i].label + ": primed sweep differs");
    }
    heldTraces.clear();
    heldMisses.clear();
    cache.clear();

    const std::map<std::string, LayerTotal> t = spans.totals();
    commonLayers(rep, t);
    const double cold_s = untraced.wallPerRep();
    rep.layers["sim.sweep_prepare_share"] =
        ratio(cold_s - primed_s, cold_s);
    rep.layers["sim.pool_busy_share"] =
        ratio(job_s, primed_s * runner.jobs());
    // The spans that redo one repetition's work (the sweep records
    // straight from the generator, so materialization is not part of
    // it), against one repetition's CPU time.
    const double covered = selfNs(t, "workloads.generate") +
                           selfNs(t, "sim.record") +
                           selfNs(t, "sim.replay");
    rep.layers["bench.span_coverage_share"] =
        ratio(covered * 1e-9, untraced.cpuPerRep());
    writeSpans(opt, spans);
    return rep;
}

// ------------------------------------------------------------- distinct

Report
runDistinctRuns(const std::vector<RequestInput> &runs, const Options &opt,
                const std::function<void()> &ready)
{
    Report rep;
    Failures failures;
    for (const RequestInput &r : runs) {
        if (r.request.op != service::RequestOp::RUN ||
            r.request.spec.benchmark.empty() || r.request.spec.timeSample)
            throw std::runtime_error("distinct_runs takes benchmark runs");
    }
    ready();

    std::vector<std::string> firstDocs;
    std::uint64_t reps = 0;
    std::uint64_t lookups = 0, l1Misses = 0;
    double analytic_err = 0;

    auto repetition = [&](Window *w) {
        std::vector<RunOutput> outs(runs.size());
        std::vector<double> lat(runs.size());
        std::uint64_t refs = 0;
        resetPeakRss();
        const double c0 = processCpuSeconds();
        const std::int64_t t0 = nowNs();
        try {
            std::vector<std::uint64_t> refs_each(runs.size());
            parallelFor(runs.size(), opt.workers, [&](std::size_t i) {
                const std::int64_t s = nowNs();
                service::RunExecution exec =
                    service::executeRun(runs[i].request.spec);
                lat[i] = (nowNs() - s) * 1e-6;
                refs_each[i] = exec.references;
                outs[i] = std::move(exec.output);
            });
            for (std::uint64_t r : refs_each)
                refs += r;
        } catch (const std::exception &e) {
            // parallelFor rethrows the first failure once every run has
            // ended; the repetition's runs all count as failed.
            failures.add(rep, runs.size(), std::string("run: ") + e.what());
            rep.attempted += runs.size();
            ++reps;
            return;
        }
        const std::int64_t t1 = nowNs();
        const double c1 = processCpuSeconds();
        if (w) {
            w->reps.push_back({static_cast<double>(refs),
                               static_cast<double>(runs.size()),
                               (t1 - t0) * 1e-9, c1 - c0, peakRssKb()});
            w->latenciesMs.insert(w->latenciesMs.end(), lat.begin(),
                                  lat.end());
        }
        const bool first = firstDocs.empty();
        for (std::size_t i = 0; i < outs.size(); ++i) {
            std::string doc = runDocument(outs[i]);
            if (first) {
                firstDocs.push_back(std::move(doc));
                analytic_err += outs[i].l2Analytic.absErrorPct;
                lookups += outs[i].engineStats.lookups;
                l1Misses += outs[i].results.l1Misses;
            } else if (doc != firstDocs[i]) {
                failures.add(rep, 1, runs[i].line + ": repetition differs");
            }
        }
        rep.attempted += runs.size();
        ++reps;
    };
    auto window = [&] {
        Window w;
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
        do {
            repetition(&w);
        } while (nowNs() < deadline);
        return w;
    };

    repetition(nullptr); // warm-up, untimed
    Window untraced = window();
    rep.reps = untraced.reps;
    rep.latenciesMs = untraced.latenciesMs;
    rep.accuracy["analytic_err_pts"] =
        runs.empty() ? 0 : analytic_err / runs.size();

    // Reference: the trace-cache path (materialize, then a shared
    // view), which executeRun takes in the daemon.
    std::vector<std::string> refDocs(runs.size());
    parallelFor(runs.size(), opt.workers, [&](std::size_t i) {
        refDocs[i] = runDocument(
            service::executeRun(runs[i].request.spec, nullptr, true)
                .output);
    });
    TraceCache::instance().clear();
    if (firstDocs.size() != runs.size())
        throw std::runtime_error("every run repetition failed");
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (refDocs[i] != firstDocs[i])
            failures.add(rep, reps,
                         runs[i].line + ": differs from cached path");
        digest = fnv1a(runs[i].line + '\n' + firstDocs[i] + '\n', digest);
    }
    rep.digest = hex(digest);

    if (!opt.trace)
        return rep;

    rep.layers["cache.l1_misses"] = static_cast<double>(l1Misses);
    rep.layers["stream.lookups"] = static_cast<double>(lookups);

    // Decomposition: per run, generate -> materialize -> the ladder
    // (whose last rung is the full system) -> record -> analytic L2.
    SpanRecorder spans(true);
    TracedPasses passes(spans);
    LadderCounts counts;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        passes.run([&](SpanRecorder &rec) {
            const service::RunSpec &spec = runs[i].request.spec;
            const MemorySystemConfig config =
                service::specSystemConfig(spec);
            const std::uint64_t group = i;
            std::unique_ptr<TraceSource> src = service::makeSpecInput(spec);
            std::shared_ptr<const MaterializedTrace> trace =
                materializeTraced(rec, group, *src);
            translateTraced(rec, group, *trace, config);
            std::uint64_t l1m = l1Traced(rec, group, *trace, config);
            // The rung differences divide by the traced pass's counts.
            LadderCounts untraced_counts;
            RunOutput out = ladderTraced(
                rec, group, trace, config,
                rec.enabled() ? counts : untraced_counts);
            rep.attempted += 1;
            if (l1m != out.results.l1Misses)
                failures.add(rep, 1,
                             runs[i].line + ": SplitCache misses differ");
            MissTrace miss = recordTraced(rec, group, trace, config);
            enginesTraced(rec, group, miss, config.streams);
            const L2ModelKind kind = service::effectiveL2Model(spec);
            if (kind != L2ModelKind::SIMULATED)
                analyticTraced(rec, group, miss, config, kind, out);
            rep.attempted += 1;
            if (runDocument(out) != firstDocs[i])
                failures.add(rep, 1, runs[i].line + ": layer path differs");
        });
    }
    rep.layers["bench.tracing_overhead_share"] = passes.overhead();
    const std::map<std::string, LayerTotal> t = spans.totals();
    commonLayers(rep, t);
    rep.layers["sim.ladder.deliver_ns_per_ref"] =
        nsPerItem(t, "trace.deliver");
    for (const char *rung :
         {"l1", "victim", "streams", "unit_filter", "czone", "l2_bus"}) {
        rep.layers[std::string("sim.ladder.") + rung + "_ns_per_ref"] =
            nsPerItem(t, (std::string("sim.ladder.") + rung).c_str());
    }
    rep.layers["cache.victim_ns_per_miss"] =
        ratio(selfNs(t, "sim.ladder.victim") - selfNs(t, "sim.ladder.l1"),
              static_cast<double>(counts.l1DataMisses));
    rep.layers["cache.l2_ns_per_access"] = ratio(
        selfNs(t, "sim.ladder.l2_bus") - selfNs(t, "sim.ladder.czone"),
        static_cast<double>(counts.l2Accesses));
    // executeRun streams the generator into the full system and
    // profiles the recorded misses; no materialization.
    const double covered = selfNs(t, "workloads.generate") +
                           selfNs(t, "sim.ladder.l2_bus") +
                           selfNs(t, "sim.analytic");
    rep.layers["bench.span_coverage_share"] =
        ratio(covered * 1e-9, untraced.cpuPerRep());
    writeSpans(opt, spans);
    return rep;
}

// ---------------------------------------------------------------- serve

namespace {

/** One request executed as the daemon would. */
struct Served
{
    std::string document;
    std::string response;
    std::uint64_t references = 0;
    std::vector<RunOutput> outputs; ///< One per run / sweep job.
};

Served
serveInProcess(const service::Request &req, unsigned sweep_jobs)
{
    Served s;
    if (req.op == service::RequestOp::RUN) {
        service::RunExecution exec =
            service::executeRun(req.spec, nullptr, true);
        s.references = exec.references;
        s.outputs.push_back(std::move(exec.output));
        return s;
    }
    std::vector<SweepJob> jobs = service::buildSweepJobs(req.spec,
                                                         req.values);
    SweepRunner runner(sweep_jobs);
    runner.setHeartbeat(false);
    runner.setCacheReport(false);
    runner.setTraceCacheEnabled(true);
    std::vector<SweepResult> results = runner.run(jobs);
    for (SweepResult &r : results) {
        s.references += r.references;
        s.outputs.push_back(std::move(r.output));
    }
    return s;
}

/** The response line the daemon writes for @p s. */
void
serialize(const service::Request &req, Served &s)
{
    std::ostringstream doc;
    if (req.op == service::RequestOp::RUN) {
        runMetrics(s.outputs.front()).writeJson(doc);
    } else {
        std::vector<SweepResult> results(s.outputs.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            results[i].label = std::to_string(req.values[i]);
            results[i].output = s.outputs[i];
            results[i].references = s.outputs[i].results.references;
        }
        TraceCacheStats stats = TraceCache::instance().stats();
        writeSweepJson(results, doc, &stats);
    }
    s.document = doc.str();
    s.response = service::resultResponse(
        req.idJson, req.op == service::RequestOp::RUN ? "run" : "sweep",
        s.references, s.document);
}

void
hitRates(std::ostream &os, const std::vector<RunOutput> &outs)
{
    os << '[';
    for (std::size_t i = 0; i < outs.size(); ++i)
        os << (i ? "," : "")
           << jsonNumber(outs[i].engineStats.hitRatePercent());
    os << ']';
}

} // namespace

Report
runServeReference(const std::vector<RequestInput> &requests,
                  const Options &opt, std::ostream &lines)
{
    Report rep;
    Failures failures;
    // sbsim-serve's configuration in the benchmark: two executors of
    // two sweep workers each.
    const unsigned executors = std::max(1u, opt.workers / 2);
    const unsigned sweep_jobs = std::max(1u, opt.workers / executors);
    const std::size_t n = requests.size();
    std::vector<Served> served(n);
    std::vector<double> exec_ms(n), parse_us(n), ser_us(n);
    std::vector<std::vector<RunOutput>> exact(n);
    parallelFor(n, executors, [&](std::size_t i) {
        const RequestInput &in = requests[i];
        constexpr int kParseReps = 20;
        std::int64_t s = nowNs();
        for (int k = 0; k < kParseReps; ++k) {
            if (!service::parseRequest(in.line).ok())
                throw std::runtime_error("unparsable request");
        }
        parse_us[i] = (nowNs() - s) * 1e-3 / kParseReps;
        s = nowNs();
        served[i] = serveInProcess(in.request, sweep_jobs);
        exec_ms[i] = (nowNs() - s) * 1e-6;
        s = nowNs();
        serialize(in.request, served[i]);
        ser_us[i] = (nowNs() - s) * 1e-3;
        if (in.request.spec.fidelity == Fidelity::SAMPLED) {
            service::Request exact_req = in.request;
            exact_req.spec.fidelity = Fidelity::EXACT;
            exact[i] = serveInProcess(exact_req, sweep_jobs).outputs;
        }
    });
    TraceCache::instance().clear();

    double err = 0;
    std::size_t err_n = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const service::Request &req = requests[i].request;
        lines << "{\"id\":" << req.idJson
              << ",\"references\":" << served[i].references
              << ",\"execute_ms\":" << jsonNumber(exec_ms[i])
              << ",\"parse_us\":" << jsonNumber(parse_us[i])
              << ",\"serialize_us\":" << jsonNumber(ser_us[i])
              << ",\"hit_rates\":";
        hitRates(lines, served[i].outputs);
        lines << ",\"exact_hit_rates\":";
        hitRates(lines, exact[i]);
        lines << ",\"document\":" << jsonQuote(served[i].document)
              << "}\n";
        for (std::size_t k = 0; k < exact[i].size(); ++k) {
            err += std::abs(
                served[i].outputs[k].engineStats.hitRatePercent() -
                exact[i][k].engineStats.hitRatePercent());
            ++err_n;
        }
    }
    lines.flush();
    rep.accuracy["sampled_err_pts"] = err_n ? err / err_n : 0;
    double l1Misses = 0, lookups = 0;
    for (const Served &s : served) {
        for (const RunOutput &out : s.outputs) {
            l1Misses += static_cast<double>(out.results.l1Misses);
            lookups += static_cast<double>(out.engineStats.lookups);
        }
    }

    if (!opt.trace)
        return rep;

    // Decomposition of every distinct request through its layers,
    // checked against the in-process documents.
    rep.layers["cache.l1_misses"] = l1Misses;
    rep.layers["stream.lookups"] = lookups;
    SpanRecorder spans(true);
    TracedPasses passes(spans);
    std::uint64_t warmup = 0, simulated = 0;
    for (std::size_t i = 0; i < n; ++i) {
        passes.run([&](SpanRecorder &rec) {
            const service::Request &req = requests[i].request;
            const std::uint64_t group = i;
            std::unique_ptr<TraceSource> src =
                service::makeSpecInput(req.spec);
            std::shared_ptr<const MaterializedTrace> trace =
                materializeTraced(rec, group, *src);
            deliverTraced(rec, group, trace);
            const MemorySystemConfig base =
                service::specSystemConfig(req.spec);
            translateTraced(rec, group, *trace, base);
            l1Traced(rec, group, *trace, base);
            std::vector<MemorySystemConfig> configs;
            if (req.op == service::RequestOp::RUN) {
                configs.push_back(base);
            } else {
                for (std::uint32_t v : req.values) {
                    service::RunSpec point = req.spec;
                    point.streams = v;
                    configs.push_back(service::specSystemConfig(point));
                }
            }
            std::vector<RunOutput> outs;
            if (req.spec.fidelity == Fidelity::SAMPLED) {
                std::shared_ptr<const SamplingPlan> plan =
                    planTraced(rec, group, *trace);
                for (const MemorySystemConfig &c : configs) {
                    outs.push_back(
                        sampledTraced(rec, group, trace, *plan, c));
                    if (rec.enabled()) {
                        warmup += outs.back().sampling.warmupRefs;
                        simulated += outs.back().sampling.simulatedRefs;
                    }
                }
            } else {
                MissTrace miss = recordTraced(rec, group, trace, base);
                enginesTraced(rec, group, miss, base.streams);
                const L2ModelKind kind =
                    service::effectiveL2Model(req.spec);
                for (const MemorySystemConfig &c : configs) {
                    outs.push_back(replayTraced(rec, group, miss, c));
                    if (kind != L2ModelKind::SIMULATED)
                        analyticTraced(rec, group, miss, c, kind,
                                       outs.back());
                }
            }
            for (std::size_t k = 0; k < outs.size(); ++k) {
                rep.attempted += 1;
                if (runDocument(outs[k]) !=
                    runDocument(served[i].outputs[k]))
                    failures.add(rep, 1,
                                 requests[i].line + ": layer path differs");
            }
        });
    }
    rep.layers["bench.tracing_overhead_share"] = passes.overhead();
    const std::map<std::string, LayerTotal> t = spans.totals();
    commonLayers(rep, t);
    auto sampled = t.find("sim.sampled");
    if (sampled != t.end() && sampled->second.calls > 0)
        rep.layers["sim.sampled_ms_per_job"] =
            sampled->second.selfNs * 1e-6 / sampled->second.calls;
    rep.layers["sim.sampled_warmup_share"] =
        ratio(static_cast<double>(warmup),
              static_cast<double>(warmup + simulated));
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v.empty() ? 0.0 : v[v.size() / 2];
    };
    rep.layers["service.parse_us"] = median(parse_us);
    rep.layers["service.serialize_us"] = median(ser_us);
    rep.layers["service.execute_ms_p50"] = median(exec_ms);
    writeSpans(opt, spans);
    return rep;
}

} // namespace perfbench
