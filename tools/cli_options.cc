#include "cli_options.hh"

#include <limits>
#include <sstream>

#include "util/env.hh"

namespace sbsim {
namespace cli {

namespace {

/** A sweep worker count or stream count: a decimal of 32 bits. */
std::optional<std::uint32_t>
parseCount(const std::string &s)
{
    std::optional<std::uint64_t> v = parseUnsignedStrict(s);
    if (!v || *v > std::numeric_limits<std::uint32_t>::max())
        return std::nullopt;
    return static_cast<std::uint32_t>(*v);
}

bool
parseList(const std::string &s, std::vector<std::uint32_t> &out)
{
    out.clear();
    std::stringstream in(s);
    std::string item;
    while (std::getline(in, item, ',')) {
        std::optional<std::uint32_t> v = parseCount(item);
        if (!v || *v == 0)
            return false;
        out.push_back(*v);
    }
    return !out.empty();
}

/** The spec field flag @p arg sets, or nullptr. */
const service::SpecField *
specFieldOfFlag(const std::string &arg)
{
    for (const service::SpecField &field : service::specFields()) {
        if (arg == specFlag(field) ||
            (!field.alias.empty() && arg == field.alias))
            return &field;
    }
    return nullptr;
}

} // namespace

std::string
specFlag(const service::SpecField &field)
{
    std::string flag = "--" + std::string(field.key);
    for (char &c : flag) {
        if (c == '_')
            c = '-';
    }
    return flag;
}

ParseResult
parseArgs(const std::vector<std::string> &args)
{
    ParseResult result;
    Options &o = result.options;

    if (args.empty()) {
        result.error = "no command given";
        return result;
    }

    const std::string &cmd = args[0];
    if (cmd == "list") {
        o.command = Command::LIST;
    } else if (cmd == "run") {
        o.command = Command::RUN;
    } else if (cmd == "capture") {
        o.command = Command::CAPTURE;
    } else if (cmd == "sweep") {
        o.command = Command::SWEEP;
    } else if (cmd == "analyze") {
        o.command = Command::ANALYZE;
    } else if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        o.command = Command::HELP;
        return result;
    } else {
        result.error = "unknown command: " + cmd;
        return result;
    }

    auto need_value = [&](std::size_t i,
                          const std::string &flag) -> bool {
        if (i + 1 >= args.size()) {
            result.error = flag + " requires a value";
            return false;
        }
        return true;
    };

    // The last flag given that only sweep reads.
    std::string sweep_flag;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (const service::SpecField *field = specFieldOfFlag(a)) {
            std::string text = "true";
            if (field->arg != service::SpecArg::SWITCH) {
                if (!need_value(i, a))
                    return result;
                text = args[++i];
            }
            std::string err = field->set(o.spec, text);
            if (!err.empty()) {
                result.error = "bad " + a + " value: " + err;
                return result;
            }
        } else if (a == "--out" || a == "-o") {
            if (!need_value(i, a))
                return result;
            o.outFile = args[++i];
        } else if (a == "--stats") {
            o.fullStats = true;
        } else if (a == "--csv") {
            o.csv = true;
        } else if (a == "--json-out") {
            if (!need_value(i, a))
                return result;
            o.jsonOut = args[++i];
        } else if (a == "--csv-out") {
            if (!need_value(i, a))
                return result;
            o.csvOut = args[++i];
        } else if (a == "--events") {
            if (!need_value(i, a))
                return result;
            o.eventsOut = args[++i];
        } else if (a == "--progress") {
            o.progress = true;
            sweep_flag = a;
        } else if (a == "--trace-cache") {
            sweep_flag = a;
            if (!need_value(i, a))
                return result;
            o.traceCache = parseBoolStrict(args[++i]);
            if (!o.traceCache) {
                result.error = "bad --trace-cache value (on|off)";
                return result;
            }
        } else if (a == "--values") {
            sweep_flag = a;
            if (!need_value(i, a))
                return result;
            if (!parseList(args[++i], o.sweepValues)) {
                result.error = "bad --values list";
                return result;
            }
        } else if (a == "--jobs" || a == "-j") {
            sweep_flag = a;
            if (!need_value(i, a))
                return result;
            std::optional<std::uint32_t> jobs = parseCount(args[++i]);
            if (!jobs) {
                result.error = "bad --jobs value";
                return result;
            }
            o.jobs = *jobs;
        } else {
            result.error = "unknown option: " + a;
            return result;
        }
    }

    // The spec's own rules: the CLI accepts exactly what the daemon
    // accepts. list reads no spec.
    if (o.command != Command::LIST) {
        std::string err = service::validateSpec(o.spec);
        if (err.empty() && o.command == Command::SWEEP)
            err = service::validateSweepValues(o.sweepValues);
        if (!err.empty()) {
            result.error = err;
            return result;
        }
    }

    // The command's rules.
    const bool simulates =
        o.command == Command::RUN || o.command == Command::SWEEP;
    if (o.command == Command::CAPTURE && o.outFile.empty()) {
        result.error = "capture needs --out FILE";
        return result;
    }
    if (!simulates && (!o.jsonOut.empty() || !o.csvOut.empty() ||
                       !o.eventsOut.empty())) {
        result.error =
            "--json-out/--csv-out/--events apply to run and sweep only";
        return result;
    }
    if (!simulates && o.spec.l2Model) {
        result.error = "--l2-model applies to run and sweep only";
        return result;
    }
    if (!simulates && o.fullStats) {
        result.error = "--stats applies to run and sweep only";
        return result;
    }
    if (o.command != Command::SWEEP && !sweep_flag.empty()) {
        result.error = sweep_flag + " applies to sweep only";
        return result;
    }
    if (o.spec.fidelity == Fidelity::SAMPLED) {
        if (!simulates) {
            result.error =
                "--fidelity sampled applies to run and sweep only";
            return result;
        }
        if (!o.eventsOut.empty()) {
            result.error = "--fidelity sampled cannot capture --events "
                           "(only the selected intervals are simulated)";
            return result;
        }
        if (o.fullStats) {
            result.error = "--fidelity sampled has no single system to "
                           "dump with --stats";
            return result;
        }
    }
    return result;
}

std::string
usage()
{
    return R"(streamsim - stream buffer memory-system simulator (ISCA '94)

usage: streamsim <command> [options]

commands:
  list                       list the fifteen benchmark models
  run                        simulate a workload or trace
  capture                    write a workload's trace to a file
  sweep                      sweep the number of stream buffers
  analyze                    reference mix and footprint of a trace
  help                       show this text

input:
  --benchmark NAME (-b)      registry benchmark to model
  --trace FILE               binary trace file to replay
  --scale small|default|large  input size (Table 4 pairs)
  --refs N                   reference budget (default 1500000)
  --sample                   10% time sampling (10k on / 90k off)

system:
  --streams N                stream buffers (default 10)
  --depth N                  entries per stream (default 2)
  --filter                   unit-stride allocation filter
  --czone BITS               czone stride detection (needs --filter)
  --min-delta                min-delta stride detection (needs --filter)
  --partitioned              separate I and D stream banks
  --victim N                 N-entry victim buffer behind the L1
  --no-streams               primary cache + memory only
  --shuffled-pages           scattered physical page mapping
  --page-bits N              log2 page size (default 12 = 4 KB)
  --l2 KB                    unified secondary cache of KB kilobytes
                             (0 = none, the default)
  --l2-model M               L2 evaluation backend (run and sweep):
                             simulated (default), analytic = one-pass
                             reuse-distance prediction, both = run the
                             two and report the absolute error
                             (analytic/both need --l2)
  --bus N                    bus occupancy per block in cycles (0 = infinite)
  --fidelity exact|sampled   run fidelity (run and sweep): exact
                             simulates every reference (default);
                             sampled profiles the trace's phases and
                             simulates only representative intervals,
                             reconstructing the metrics with a
                             jackknife error bar (see the metrics
                             "sampling" section)

output:
  --out FILE (-o)            capture target file
  --stats                    dump full component statistics (run and
                             sweep)
  --csv                      emit tables as CSV
  --json-out FILE            structured metrics as versioned JSON
                             (run and sweep)
  --csv-out FILE             flattened metrics as CSV (run and sweep)
  --events FILE              structural stream-event trace as JSONL
                             (run and sweep; jobs in submission order)
  --progress                 sweep heartbeat on stderr (also
                             SBSIM_PROGRESS=1)
  --trace-cache on|off       sweep trace reuse: shared materialised
                             traces + L1 miss-stream replay (default
                             on; also SBSIM_TRACE_CACHE). Purely a
                             speed knob — results are bit-identical.
  --values A,B,C             sweep values (default 1,2,4,6,8,10)
  --jobs N (-j)              sweep worker threads (0 = auto from
                             SBSIM_JOBS or hardware concurrency;
                             1 or SBSIM_SERIAL=1 = serial)
)";
}

} // namespace cli
} // namespace sbsim
