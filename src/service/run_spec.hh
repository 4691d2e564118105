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
 * Both front ends also read a spec through one grammar: the field
 * table specFields() names every RunSpec field once, with its key and
 * the one setter that parses its text, and validateSpec() holds every
 * rule a spec must satisfy. Everything here is deterministic for a
 * given spec.
 */

#ifndef STREAMSIM_SERVICE_RUN_SPEC_HH
#define STREAMSIM_SERVICE_RUN_SPEC_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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
 *  Every field is read through its specFields() entry. */
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
    /** L2 evaluation backend; unset means simulated. */
    std::optional<L2ModelKind> l2Model;
    /** Exact replays every reference; sampled simulates only a phase
     *  plan's representative intervals (sim/sampled_run.hh). */
    Fidelity fidelity = Fidelity::EXACT;

    bool operator==(const RunSpec &) const = default;
};

/** How a spec field's value is spelled on each front end. */
enum class SpecArg : std::uint8_t
{
    SWITCH, ///< A bare CLI flag; a JSON boolean.
    NUMBER, ///< CLI text; a JSON non-negative integer.
    WORD,   ///< CLI text; a JSON string.
};

/** One RunSpec field, as both front ends read it. */
struct SpecField
{
    /** The JSON key; the CLI flag is "--" + key with '_' as '-'. */
    std::string_view key;
    SpecArg arg;
    /** Parse @p text (a switch's is "true" or "false") into the
     *  field. @return empty on success, else the reason, which the
     *  front end prefixes with the key or flag. */
    std::string (*set)(RunSpec &spec, const std::string &text);
    /** A short CLI flag for the field, if any. */
    std::string_view alias = {};
};

/** The table of every RunSpec field, each named once. */
std::span<const SpecField> specFields();

/** The table entry with JSON key @p key, or nullptr. */
const SpecField *findSpecField(std::string_view key);

/** The stream counts a sweep runs when the request names none. */
inline constexpr std::array<std::uint32_t, 6> kDefaultSweepValues = {
    1, 2, 4, 6, 8, 10};

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
 * a one-line human-readable reason. This is the only place spec
 * rules live: the CLI parser and the service protocol both enforce
 * exactly this set.
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
 * Build the self-owned source chain the spec describes: its benchmark
 * or trace file through makeInputChain. Called per run (and per sweep
 * job, on the worker thread) — every caller gets a private chain
 * sharing no mutable state.
 */
std::unique_ptr<TraceSource> makeSpecInput(const RunSpec &spec);

/**
 * Dedup key of the spec's input stream, fed to the trace cache /
 * sweep planner: its inputKey. Only input-selection fields
 * participate, so every system configuration over the same input
 * shares one key (and hence one materialised trace), and the CLI, the
 * daemon and benchmarkJob's jobs over equal inputs coalesce.
 */
std::string specSourceKey(const RunSpec &spec);

/** Resolve the L2 evaluation backend: the spec's choice, else
 *  simulated. */
L2ModelKind effectiveL2Model(const RunSpec &spec);

/** What one executed run produced. */
struct RunExecution
{
    /** References the system processed. */
    std::uint64_t references = 0;
    RunOutput output;
};

/**
 * Execute the spec: its one sweep job (buildSweepJobs at the spec's
 * own stream count, with @p events attached) served by runJob, so a
 * run takes exactly the path its point of a sweep takes. The output
 * includes the analytic L2 report when the effective model asks for
 * one.
 *
 * @param events Optional structural event capture (caller-owned).
 * @param use_trace_cache Plan the job over the process-wide
 *        TraceCache. The daemon passes its cache flag here. An exact
 *        run then replays its front end's recording when the store
 *        holds one, else reads the spec's trace when the store holds
 *        that, else streams its generator and stores nothing; a
 *        sampled run builds its trace and sampling plan through the
 *        store, so concurrent requests over the same input coalesce.
 *        An event-traced run never replays (a replay cannot re-emit
 *        front-end events). Results are bit-identical either way.
 * @param inspect Optional peek at the finished MemorySystem before
 *        it is torn down (the CLI's --stats dump); called after the
 *        output is collected. It needs the run's own front end, so
 *        it requires @p use_trace_cache false (asserted).
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
