/**
 * @file
 * Command-line option parsing for the streamsim CLI. Kept separate
 * from main() so the parser is unit-testable. The spec's flags are
 * read through service::specFields() and checked by
 * service::validateSpec(), exactly as sbsim-serve reads a request's
 * "spec"; this file adds only the CLI's own flags and command rules.
 */

#ifndef STREAMSIM_TOOLS_CLI_OPTIONS_HH
#define STREAMSIM_TOOLS_CLI_OPTIONS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/run_spec.hh"

namespace sbsim {
namespace cli {

/** What the invocation asked for. */
enum class Command : std::uint8_t
{
    LIST,    ///< List the benchmark registry.
    RUN,     ///< Run one workload/trace through a configured system.
    CAPTURE, ///< Write a workload's trace to a file.
    SWEEP,   ///< Sweep the number of streams.
    ANALYZE, ///< Reference-mix and footprint statistics of a trace.
    HELP,
};

/** Parsed command line. */
struct Options
{
    Command command = Command::HELP;

    /** Input selection and system configuration: one flag per
     *  service::specFields() entry. */
    service::RunSpec spec;

    // Output.
    std::string outFile;   ///< capture target.
    bool fullStats = false;
    bool csv = false;      ///< Machine-readable table output.
    std::string jsonOut;   ///< Structured metrics JSON target.
    std::string csvOut;    ///< Flattened metrics CSV target.
    std::string eventsOut; ///< Structural event trace (JSONL) target.
    bool progress = false; ///< Sweep heartbeat on stderr.
    /** Sweep trace reuse (--trace-cache on|off). Unset defers to
     *  SBSIM_TRACE_CACHE (default on); bit-identical either way. */
    std::optional<bool> traceCache;

    // Sweep values (number of streams).
    std::vector<std::uint32_t> sweepValues{
        service::kDefaultSweepValues.begin(),
        service::kDefaultSweepValues.end()};
    /** Sweep worker threads; 0 = auto (SBSIM_JOBS, else hardware
     *  concurrency). 1 runs serially; SBSIM_SERIAL=1 forces serial. */
    std::uint32_t jobs = 0;
};

/** Result of parsing: options or an error message. */
struct ParseResult
{
    Options options;
    std::string error; ///< Empty on success.

    bool ok() const { return error.empty(); }
};

/** Parse argv (excluding argv[0]). */
ParseResult parseArgs(const std::vector<std::string> &args);

/** The CLI flag of a spec field: "--" + its key, '_' written '-'. */
std::string specFlag(const service::SpecField &field);

/** The usage text. */
std::string usage();

} // namespace cli
} // namespace sbsim

#endif // STREAMSIM_TOOLS_CLI_OPTIONS_HH
