/**
 * @file
 * Parallel sweep engine for (benchmark x configuration) grids, and the
 * one way any job is served.
 *
 * Every table and figure of the reproduction runs many independent
 * simulations: each job owns its own trace source and MemorySystem,
 * so the grid is embarrassingly parallel. SweepRunner fans a vector
 * of SweepJobs out across a fixed-size pool of std::thread workers
 * and returns results in submission order regardless of completion
 * order, so callers see exactly the ordering a serial loop over
 * runOnce would produce. A single run is a one-job sweep: runJob
 * plans and serves it through the same planner and executor.
 *
 * Determinism contract: a job's makeSource factory is invoked on the
 * worker thread and must build a source chain private to the job
 * (ComposedWorkload and friends are deterministic per instance and
 * share no mutable state), so results are bit-identical for any
 * worker count — including 1. tests/test_sweep_runner.cc enforces
 * this differentially against serial runOnce loops, and
 * tests/test_event_trace_diff.cc extends the same pin to the
 * per-job structural event traces.
 *
 * Environment knobs (strictly parsed — see util/env.hh; malformed
 * values warn and are ignored):
 *   SBSIM_JOBS=N      worker count, plain decimal in [1, 1024].
 *   SBSIM_SERIAL=B    force serial; B in 1/true/yes/on (or the
 *                     0/false/no/off negations).
 *   SBSIM_PROGRESS=B  emit the sweep heartbeat on stderr.
 *   SBSIM_CACHE_REPORT=B  end-of-sweep trace-cache effectiveness
 *                     report on stderr. Defaults on; it only prints
 *                     when the cache is enabled for the runner, so
 *                     unset means "report whenever there is a cache
 *                     to report on".
 *   SBSIM_TRACE_CACHE=B  trace reuse across jobs (default on): jobs
 *                     sharing a source key read one materialised
 *                     trace, and jobs also sharing an L1 front end
 *                     replay one recorded miss stream, or take their
 *                     stream count's result from one stream-stack
 *                     pass over it (sim/stream_stack.hh). Bit-identical
 *                     either way; see trace/trace_cache.hh.
 *
 * Before any job runs, one planner turns the grid into the artifacts
 * its jobs read — reference traces, miss traces, sampling plans and
 * stream-stack passes — deduplicated by key and built one level at a
 * time; then one executor serves each job from what was built (see
 * planSweep and executeJob in sweep_runner.cc and docs/INTERNALS.md).
 */

#ifndef STREAMSIM_SIM_SWEEP_RUNNER_HH
#define STREAMSIM_SIM_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/analytic_l2.hh"
#include "sim/experiment.hh"
#include "sim/sampled_run.hh"
#include "trace/source.hh"
#include "trace/trace_cache.hh"
#include "util/event_trace.hh"
#include "workloads/benchmark.hh"

namespace sbsim {

/** One (trace, configuration) point of a sweep grid. */
struct SweepJob
{
    /** Caller-chosen identifier copied into the result row. */
    std::string label;

    /**
     * Factory for the job's private trace source. Called once, on the
     * worker thread that executes the job; the returned chain must not
     * share mutable state with any other job's.
     */
    std::function<std::unique_ptr<TraceSource>()> makeSource;

    MemorySystemConfig config;

    /**
     * Optional per-job structural event capture (caller-owned; must
     * outlive run()). Each job writes only its own trace, so parallel
     * execution stays race-free and bit-identical to serial.
     */
    EventTrace *eventTrace = nullptr;

    /**
     * Dedup key of the job's input stream: jobs whose factories
     * produce identical reference sequences must carry equal keys
     * (inputKey derives one from origin/scale/limit/sampling).
     * The key names the job's artifacts for the runner's planner:
     * equal source keys share one MaterializedTrace, and equal
     * (source key, front-end key) pairs share one MissTrace and run as
     * secondary-level replays or from one stream-stack pass over it.
     * Required: the planner asserts every job has one.
     */
    std::string sourceKey;

    /**
     * ANALYTIC or BOTH attaches an analytic L2 prediction (see
     * sim/analytic_l2.hh) to the job's RunOutput::l2Analytic. The job's
     * own run or replay feeds a reuse-distance profiler tapped at its
     * L2 port (the demand misses the L1 and victim buffer let through),
     * and the prediction is a closed-form evaluation of that profile.
     * Such a job is never answered by a stream-stack pass, which has
     * no tap. Simulation of the job itself is unchanged (BOTH compares
     * the two). Default: SIMULATED (off).
     */
    L2ModelKind l2Model = L2ModelKind::SIMULATED;

    /**
     * SAMPLED services the job by phase-aware interval sampling
     * instead of a full run (sim/sampled_run.hh): the runner
     * materialises the job's input, obtains one sampling plan per
     * (source key, profile config) pair, and reconstructs the metrics
     * from the representative intervals. Incompatible with eventTrace,
     * an analytic l2Model (asserted) and replay.
     */
    Fidelity fidelity = Fidelity::EXACT;
};

/** A RunOutput plus per-job provenance and throughput. */
struct SweepResult
{
    std::string label;
    RunOutput output;

    /** References the system processed (trace generation included). */
    std::uint64_t references = 0;
    /** Wall-clock seconds for source construction + simulation. */
    double wallSeconds = 0;
    /** references / wallSeconds (0 when the clock saw no time pass). */
    double refsPerSecond = 0;
};

/**
 * Build a SweepJob that models registry benchmark @p benchmark_name
 * at @p level through makeInputChain: truncated to @p ref_limit
 * references, optionally time-sampled as the paper did, keyed by
 * inputKey. Defaults @p label to the benchmark name.
 */
SweepJob benchmarkJob(const std::string &benchmark_name, ScaleLevel level,
                      const MemorySystemConfig &config,
                      std::string label = "",
                      std::uint64_t ref_limit = 1500000,
                      bool time_sample = false);

/**
 * Indexed parallel-for over [0, count) on at most @p jobs workers.
 *
 * @p jobs == 0 resolves via SweepRunner::defaultJobs(); an effective
 * worker count of 1 runs inline on the calling thread (the serial
 * debugging fallback). Indices are claimed from a shared atomic
 * counter, so @p fn must only touch state owned by its index. The
 * first exception a worker throws is rethrown here after all workers
 * join.
 */
void parallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/** Fixed-size thread-pool executor for sweep grids. */
class SweepRunner
{
  public:
    /** @param jobs Worker cap; 0 = defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0);

    /** Effective worker cap (1 when SBSIM_SERIAL forces serial). */
    unsigned jobs() const { return serialForced() ? 1 : jobs_; }

    /**
     * Emit a progress heartbeat on stderr while run() executes: jobs
     * completed / total, references simulated, aggregate refs/s.
     * Defaults to SBSIM_PROGRESS (off when unset). Never touches the
     * results, so it cannot perturb determinism.
     */
    void setHeartbeat(bool on) { heartbeat_ = on; }

    /**
     * Emit the end-of-sweep trace-cache effectiveness report on
     * stderr (printTraceCacheReport). Defaults to SBSIM_CACHE_REPORT,
     * which defaults *on*: the report is the cache's only visibility
     * in non-progress runs. It prints only when the cache is enabled
     * — with reuse off there are no cache numbers to report.
     */
    void setCacheReport(bool on) { cacheReport_ = on; }

    /**
     * Enable/disable trace reuse (Level 1 materialisation, Level 2
     * miss-stream replay, Level 3 stream-stack passes) for this
     * runner. Defaults to SBSIM_TRACE_CACHE (on when unset). Purely a
     * performance knob: results are bit-identical either way, which
     * tests/test_sweep_runner.cc pins differentially.
     */
    void setTraceCacheEnabled(bool on) { traceCache_ = on; }
    bool traceCacheEnabled() const { return traceCache_; }

    /**
     * Execute every job and return results in submission order.
     * Results are bit-identical for any worker count.
     */
    std::vector<SweepResult> run(const std::vector<SweepJob> &jobs) const;

    /**
     * Default worker count: SBSIM_JOBS when set to a plain decimal in
     * [1, 1024] (malformed or out-of-range values warn and are
     * ignored), else std::thread::hardware_concurrency() (1 when
     * unknown).
     */
    static unsigned defaultJobs();

    /**
     * True when SBSIM_SERIAL is a true-ish boolean (1/true/yes/on,
     * case-insensitive). False-ish forms (0/false/no/off) and unset
     * run parallel; anything else warns and runs parallel.
     */
    static bool serialForced();

  private:
    unsigned jobs_;
    bool heartbeat_;
    bool traceCache_;
    bool cacheReport_;
};

/**
 * Dedup key of the input chain makeInputChain builds: its @p origin
 * ("bench:NAME" for a registry benchmark, "file:PATH" for a trace
 * file) at @p level, truncated to @p ref_limit references and
 * time-sampled when @p time_sample is set. benchmarkJob and the
 * service's spec inputs both key through it, so equal inputs share
 * one key whichever built them.
 */
std::string inputKey(const std::string &origin, ScaleLevel level,
                     std::uint64_t ref_limit, bool time_sample);

/**
 * Store key of a job's miss trace: the input stream's dedup key plus
 * the front end that filters it. Exposed so bench harnesses priming
 * the store themselves (table4_vs_l2) land on the same entries the
 * runner's planner uses.
 */
std::string missTraceKey(const std::string &source_key,
                         const MemorySystemConfig &config);

/** Store key of the sampling plan of @p source_key's trace under
 *  profile config @p config. */
std::string samplingPlanKey(const std::string &source_key,
                            const PhaseProfileConfig &config);

/**
 * Serve one job as a one-job sweep: plan it (with @p use_store, it
 * reads a trace or recording the store already holds and builds
 * nothing else; a sampled job builds its trace and sampling plan
 * through the store) and run it through the sweep's executor. No
 * heartbeat and no cache report. The output is bit-identical to the
 * job's point of any sweep.
 *
 * @param inspect Optional peek at the job's finished MemorySystem (the
 *        CLI's --stats dump), called after the output is collected.
 *        It needs the job's own front end, so it requires
 *        @p use_store false (asserted).
 */
RunOutput runJob(const SweepJob &job, bool use_store,
                 const std::function<void(MemorySystem &)> &inspect = {});

/**
 * Serialise sweep results as one JSON document: a "jobs" array of
 * per-job metric sections (label + the full runMetrics section set)
 * plus an "aggregate" object (job count, total references, wall
 * seconds, aggregate refs/s). Field order is deterministic. When
 * @p cache_stats is non-null the aggregate also carries a
 * "trace_cache" object (hits / materialisations / recordings /
 * replays / resident bytes).
 */
void writeSweepJson(const std::vector<SweepResult> &results,
                    std::ostream &os,
                    const TraceCacheStats *cache_stats = nullptr);

/** As above, with the store's stats attached when @p runner uses the
 *  trace cache. */
void writeSweepJson(const std::vector<SweepResult> &results,
                    std::ostream &os, const SweepRunner &runner);

/**
 * Serialise sweep results as CSV: one row per job (label, references,
 * wall_seconds, refs_per_second, then every flattened
 * "section.field" metric) and a final "aggregate" row carrying the
 * totals with the per-run metric cells left empty.
 */
void writeSweepCsv(const std::vector<SweepResult> &results,
                   std::ostream &os);

} // namespace sbsim

#endif // STREAMSIM_SIM_SWEEP_RUNNER_HH
