/**
 * @file
 * Experiment plumbing shared by the benchmark harness: canonical paper
 * configurations, a one-shot runner that returns everything the tables
 * and figures need, and small sweep helpers.
 */

#ifndef STREAMSIM_SIM_EXPERIMENT_HH
#define STREAMSIM_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/memory_system.hh"
#include "util/metrics.hh"

namespace sbsim {

/**
 * Analytic L2 prediction attached to a run when --l2-model is
 * analytic or both (see sim/analytic_l2.hh). Zero-filled (model
 * "simulated") otherwise, so the exported section shape is constant.
 */
struct L2AnalyticReport
{
    /** "simulated" | "analytic" | "both" (toString(L2ModelKind)). */
    std::string model = "simulated";
    /** Predicted L2 miss ratio (%) over the profiled demand stream. */
    double predictedMissRatioPct = 0;
    /** 100 - predictedMissRatioPct (0 when nothing was profiled). */
    double predictedHitRatePct = 0;
    /** Simulated in-system L2 miss ratio (%); filled in BOTH mode. */
    double simulatedMissRatioPct = 0;
    /** |predicted - simulated| (%); filled in BOTH mode. */
    double absErrorPct = 0;
    /** Demand misses the profile observed. */
    std::uint64_t profiledMisses = 0;
    /** Distinct blocks in the profiled stream (== cold misses). */
    std::uint64_t uniqueBlocks = 0;
};

/**
 * Sampling provenance of a run, attached when --fidelity=sampled (see
 * sim/sampled_run.hh). Zero-filled (mode "exact") on the exact path,
 * so the exported section shape is constant.
 */
struct SamplingReport
{
    /** "exact" | "sampled" (toString(Fidelity)). */
    std::string mode = "exact";
    /** Profiling intervals the trace was divided into. */
    std::uint64_t intervalsTotal = 0;
    /** Representative intervals actually simulated. */
    std::uint64_t intervalsSelected = 0;
    /** References per profiling interval (plan config). */
    std::uint64_t intervalRefs = 0;
    /** Warmup references replayed but not counted. */
    std::uint64_t warmupRefs = 0;
    /** Measured references actually simulated. */
    std::uint64_t simulatedRefs = 0;
    /** Weighted estimate of the full trace's references. */
    std::uint64_t estimatedRefs = 0;
    /** Jackknife (leave-one-cluster-out) standard error of the L1
     *  miss rate estimate, in points. 0 with fewer than 2 clusters. */
    double missRateStderrPct = 0;
    /** TimeSampler pass-through accounting for the input the run
     *  consumed (zero when --sample was off). Every path reports it:
     *  a source chain, a materialised trace, a miss trace. */
    SamplerCounts timeSampler;
};

/** Everything a table/figure row needs from one simulation run. */
struct RunOutput
{
    SystemResults results;
    StreamEngineStats engineStats;
    /** Stream-length distribution shares (%) for the five Table 3
     *  buckets: 1-5, 6-10, 11-15, 16-20, >20. Empty without streams. */
    std::vector<double> lengthSharesPercent;
    /** Analytic L2 model report (zero-filled unless requested). */
    L2AnalyticReport l2Analytic;
    /** Sampled-fidelity provenance (zero-filled on the exact path). */
    SamplingReport sampling;
};

/**
 * Paper-standard system configuration.
 *
 * @param num_streams Number of stream buffers.
 * @param allocation Stream allocation policy.
 * @param stride Non-unit-stride detection backing the unit filter.
 * @param czone_bits Czone size when @p stride is CZONE.
 */
MemorySystemConfig
paperSystemConfig(std::uint32_t num_streams = 10,
                  AllocationPolicy allocation = AllocationPolicy::ALWAYS,
                  StrideDetection stride = StrideDetection::NONE,
                  unsigned czone_bits = 18);

/**
 * A run's RunOutput from its counts and its Table 3 length shares:
 * every rate through deriveResults(). Full and replayed runs and the
 * stream-stack pass all report through it.
 */
RunOutput reportCounts(const RunCounts &counts,
                       std::vector<double> length_shares);

/**
 * Finalize @p system and assemble its RunOutput (used by the sweep
 * executor's one build-run-collect step and by callers that drive a
 * MemorySystem directly).
 */
RunOutput collectOutput(MemorySystem &system);

/**
 * Run @p src through a system configured by @p config, with an
 * optional structural event trace attached for the duration of the
 * run (@p events may be nullptr; caller-owned). Defined beside the
 * sweep executor (sim/sweep_runner.cc), whose build-run-collect step
 * it shares, as does replayOnce.
 */
RunOutput runOnce(TraceSource &src, const MemorySystemConfig &config,
                  EventTrace *events = nullptr);

/**
 * Drive only the secondary level of @p config from a recorded post-L1
 * stream (MemorySystem::replayMissTrace). The trace must have been
 * recorded under @p config's front end (same frontEndKey); the output
 * is bit-identical to runOnce over the original source. Event traces
 * are deliberately unsupported here: front-end events (victim hits,
 * L1 activity) cannot be re-emitted from a miss trace, so the sweep
 * planner never routes event-traced jobs through replay.
 */
RunOutput replayOnce(const MissTrace &trace,
                     const MemorySystemConfig &config);

/**
 * Convert one run's results into the exported metric sections. Every
 * section is always present (zero-filled when the corresponding
 * component is disabled) and fields are inserted in a fixed order, so
 * the JSON/CSV shape is identical across configurations — the
 * stability the schema in tools/metrics.schema.json pins.
 *
 * Sections, in order: run, l1, streams, stream_lengths, victim, l2,
 * l2_analytic, sw_prefetch, cycles, sampling.
 */
MetricsRegistry runMetrics(const RunOutput &out);

} // namespace sbsim

#endif // STREAMSIM_SIM_EXPERIMENT_HH
