/**
 * @file
 * The traced run's layer-by-layer decomposition. SweepRunner::run and
 * executeRun hide their layers, so the traced run repeats the same
 * work through each layer's public calls, one span per call, and the
 * callers check that the outputs are bit-identical to the end-to-end
 * path's.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/analytic_l2.hh"
#include "sim/experiment.hh"
#include "sim/sampled_run.hh"
#include "spans.hh"
#include "trace/materialized_trace.hh"
#include "trace/miss_trace.hh"
#include "trace/phase_profile.hh"

namespace perfbench {

/** The exported metrics document of one run (the CLI's --json-out
 *  bytes). */
std::string runDocument(const sbsim::RunOutput &out);

/** 64-bit FNV-1a, for output digests. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/** User + system CPU seconds of this process so far. */
double processCpuSeconds();

/** Restart the peak-RSS high-water mark (Linux clear_refs "5"). */
void resetPeakRss();

/** Peak resident set since the last resetPeakRss(), in KiB (VmHWM). */
double peakRssKb();

/**
 * Drain @p src into a shared trace (span "trace.materialize"), with
 * one child span "workloads.generate" per nextBatch call into @p src,
 * so the materialization's self time excludes generation.
 */
std::shared_ptr<const sbsim::MaterializedTrace>
materializeTraced(SpanRecorder &spans, std::uint64_t group,
                  sbsim::TraceSource &src);

/** SharedTraceView::nextBatch over the whole trace ("trace.deliver"). */
void deliverTraced(SpanRecorder &spans, std::uint64_t group,
                   const std::shared_ptr<const sbsim::MaterializedTrace>
                       &trace);

/** PageMapper::translate per reference, in @p config's mode
 *  ("mem.translate"). */
void translateTraced(SpanRecorder &spans, std::uint64_t group,
                     const sbsim::MaterializedTrace &trace,
                     const sbsim::MemorySystemConfig &config);

/** SplitCache::access over the translated trace ("cache.l1").
 *  @return L1 misses. */
std::uint64_t l1Traced(SpanRecorder &spans, std::uint64_t group,
                       const sbsim::MaterializedTrace &trace,
                       const sbsim::MemorySystemConfig &config);

/** recordMissTrace over a view of @p trace ("sim.record"). */
sbsim::MissTrace
recordTraced(SpanRecorder &spans, std::uint64_t group,
             const std::shared_ptr<const sbsim::MaterializedTrace> &trace,
             const sbsim::MemorySystemConfig &config);

/**
 * PrefetchEngine::onPrimaryMiss over the recorded demand misses, with
 * write-backs forwarded as the memory system does (span @p name,
 * items = demand misses). @return the engine's counters.
 */
sbsim::StreamEngineStats
engineTraced(SpanRecorder &spans, std::uint64_t group, const char *name,
             const sbsim::MissTrace &miss,
             const sbsim::StreamEngineConfig &config);

/** replayOnce ("sim.replay", items = miss records). */
sbsim::RunOutput replayTraced(SpanRecorder &spans, std::uint64_t group,
                              const sbsim::MissTrace &miss,
                              const sbsim::MemorySystemConfig &config);

/** Front-end counters the ladder's rung differences divide by. */
struct LadderCounts
{
    std::uint64_t l1DataMisses = 0; ///< Victim-buffer probes.
    std::uint64_t l2Accesses = 0;
};

/**
 * The layer ladder: one trace through delivery only, then the L1
 * (with @p full's page translation), +victim buffer, +streams
 * (allocate on every miss), +unit filter, +czone, and +L2/bus, which
 * is @p full itself. Spans "trace.deliver" and "sim.ladder.<rung>".
 * @return the last rung's output (a full run of @p full).
 */
sbsim::RunOutput
ladderTraced(SpanRecorder &spans, std::uint64_t group,
             const std::shared_ptr<const sbsim::MaterializedTrace> &trace,
             const sbsim::MemorySystemConfig &full, LadderCounts &counts);

/**
 * Attach the analytic L2 report executeRun attaches for @p kind:
 * profileMissTraceInto + AnalyticL2Model ("sim.analytic", items =
 * profiled misses).
 */
void analyticTraced(SpanRecorder &spans, std::uint64_t group,
                    const sbsim::MissTrace &miss,
                    const sbsim::MemorySystemConfig &config,
                    sbsim::L2ModelKind kind, sbsim::RunOutput &out);

/** buildSamplingPlan ("trace.phase_profile", items = references). */
std::shared_ptr<const sbsim::SamplingPlan>
planTraced(SpanRecorder &spans, std::uint64_t group,
           const sbsim::MaterializedTrace &trace);

/** runSampled ("sim.sampled", items = 1 job). */
sbsim::RunOutput
sampledTraced(SpanRecorder &spans, std::uint64_t group,
              const std::shared_ptr<const sbsim::MaterializedTrace> &trace,
              const sbsim::SamplingPlan &plan,
              const sbsim::MemorySystemConfig &config);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
