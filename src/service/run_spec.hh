/**
 * @file
 * The shared run/sweep execution core behind both front ends.
 *
 * A RunSpec is the complete, transport-neutral description of one
 * simulation request: which input stream to model and what memory
 * system to run it through. The CLI builds one from parsed argv, the
 * sweep service builds one from a JSON request, and both execute it
 * through the functions here — which is what makes the daemon's
 * differential smoke test meaningful: the two paths cannot drift
 * because there is only one path.
 *
 * Everything here is deterministic for a given spec. The only
 * environment sensitivity is effectiveL2Model()'s SBSIM_L2_MODEL
 * fallback, which both front ends resolve through the same call.
 */

#ifndef STREAMSIM_SERVICE_RUN_SPEC_HH
#define STREAMSIM_SERVICE_RUN_SPEC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/analytic_l2.hh"
#include "sim/experiment.hh"
#include "sim/sampled_run.hh"
#include "sim/sweep_runner.hh"
#include "util/event_trace.hh"
#include "workloads/benchmark.hh"

namespace sbsim {
namespace service {

/** One simulation request: input selection + system configuration.
 *  Field semantics and defaults mirror the CLI flags (see usage()). */
struct RunSpec
{
    // Input selection: exactly one of benchmark/traceFile.
    std::string benchmark; ///< Registry name, or
    std::string traceFile; ///< a binary trace to replay.
    ScaleLevel scale = ScaleLevel::DEFAULT;
    std::uint64_t refs = 1500000;
    bool timeSample = false; ///< 10% time sampling (10k/90k).

    // System configuration.
    std::uint32_t streams = 10;
    std::uint32_t depth = 2;
    bool unitFilter = false;
    std::optional<unsigned> czoneBits; ///< Enables czone detection.
    bool minDelta = false;
    bool partitioned = false;
    std::uint32_t victimEntries = 0;
    bool noStreams = false;
    bool shuffledPages = false;
    std::uint32_t pageBits = 12;
    std::uint32_t l2KiloBytes = 0; ///< 0 = no secondary cache.
    std::uint32_t busCycles = 0;   ///< Bus cycles/block (0 = infinite).
    /** L2 evaluation backend; unset defers to SBSIM_L2_MODEL. */
    std::optional<L2ModelKind> l2Model;
    /** Exact replays every reference; sampled simulates only a phase
     *  plan's representative intervals (sim/sampled_run.hh). */
    Fidelity fidelity = Fidelity::EXACT;
};

/**
 * Largest victim buffer a spec may configure. The buffer is searched
 * on every L1 miss, so its size bounds the per-miss work; Jouppi's
 * victim caches hold 1-15 entries.
 */
inline constexpr std::uint32_t kMaxVictimEntries = 256;

/**
 * Validate the cross-field rules a well-formed spec must satisfy
 * (benchmark xor trace, known benchmark, stride detection behind the
 * unit filter, power-of-two L2, field ranges). The sizes the per-miss
 * structures scan are bounded: streams and depth by the stream set's
 * capacity (StreamSet::kMaxStreams, StreamSet::kMaxDepth), victim
 * entries by kMaxVictimEntries. @return empty string when valid, else
 * a one-line human-readable reason. The CLI parser and the service
 * protocol both enforce exactly this set.
 */
std::string validateSpec(const RunSpec &spec);

/** Validate one stream count: a spec's streams or one sweep value.
 *  @return empty when valid, else the reason. */
std::string validateStreamCount(std::uint32_t streams);

/** Validate a sweep grid: nonempty, every value a valid stream count.
 *  @return empty when valid, else the reason. */
std::string validateSweepValues(const std::vector<std::uint32_t> &values);

/** Build the MemorySystemConfig the spec describes. */
MemorySystemConfig specSystemConfig(const RunSpec &spec);

/**
 * Build the self-owned source chain the spec describes. Called per
 * run (and per sweep job, on the worker thread) — every caller gets a
 * private chain sharing no mutable state.
 */
std::unique_ptr<TraceSource> makeSpecInput(const RunSpec &spec);

/**
 * Drain the spec's input chain into an immutable shared trace (with
 * the chain's TimeSampler counts, as every drain records them). The
 * sampled-fidelity path materialises through this so phase profiling
 * and interval replay see one stable buffer.
 */
std::shared_ptr<const MaterializedTrace>
materializeSpecInput(const RunSpec &spec);

/**
 * Dedup key of the spec's input stream, fed to the trace cache /
 * sweep planner. Only input-selection fields participate: every
 * system configuration over the same input shares one key (and hence
 * one materialised trace). The "cli|" prefix is historical; the CLI
 * and the daemon deliberately share it so their recordings coalesce.
 */
std::string specSourceKey(const RunSpec &spec);

/**
 * Resolve the L2 evaluation backend: the spec's explicit choice wins,
 * else SBSIM_L2_MODEL, else simulated. An env-only analytic/both
 * request without a secondary cache has nothing to predict, so it
 * warns and falls back to simulated (an explicit analytic/both
 * without --l2 is rejected by validateSpec instead).
 */
L2ModelKind effectiveL2Model(const RunSpec &spec);

/** What one executed run produced. */
struct RunExecution
{
    /** References the system processed. */
    std::uint64_t references = 0;
    RunOutput output;
};

/**
 * Execute the spec: build its input, run the configured system, and
 * collect the output (including the analytic L2 report when the
 * effective model asks for one).
 *
 * @param events Optional structural event capture (caller-owned).
 * @param use_trace_cache Route the input through the process-wide
 *        TraceCache (materialise once, replay a shared view). The
 *        daemon passes its cache flag here so concurrent requests
 *        over the same input coalesce; results are bit-identical
 *        either way. Ignored when @p events is set — a cached replay
 *        cannot re-emit source-construction events.
 * @param inspect Optional peek at the finished MemorySystem before
 *        it is torn down (the CLI's --stats dump); called after the
 *        output is collected.
 */
RunExecution
executeRun(const RunSpec &spec, EventTrace *events = nullptr,
           bool use_trace_cache = false,
           const std::function<void(MemorySystem &)> &inspect = {});

/**
 * Build the sweep grid the spec describes: one job per entry of
 * @p values (the stream counts), all sharing the spec's source key so
 * the runner materialises/records the input once.
 *
 * @param event_traces When non-null, must hold one EventTrace per
 *        value (caller-owned, stable addresses) and each job gets its
 *        slot attached.
 */
std::vector<SweepJob>
buildSweepJobs(const RunSpec &spec,
               const std::vector<std::uint32_t> &values,
               std::vector<EventTrace> *event_traces = nullptr);

} // namespace service
} // namespace sbsim

#endif // STREAMSIM_SERVICE_RUN_SPEC_HH
