#include "cli_options.hh"

#include <sstream>

namespace sbsim {
namespace cli {

namespace {

bool
parseU32(const std::string &s, std::uint32_t &out)
{
    try {
        std::size_t pos = 0;
        unsigned long v = std::stoul(s, &pos);
        if (pos != s.size() || v > 0xffffffffUL)
            return false;
        out = static_cast<std::uint32_t>(v);
        return true;
    } catch (...) {
        return false;
    }
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    try {
        std::size_t pos = 0;
        unsigned long long v = std::stoull(s, &pos);
        if (pos != s.size())
            return false;
        out = v;
        return true;
    } catch (...) {
        return false;
    }
}

bool
parseScale(const std::string &s, ScaleLevel &out)
{
    if (s == "small") {
        out = ScaleLevel::SMALL;
    } else if (s == "default") {
        out = ScaleLevel::DEFAULT;
    } else if (s == "large") {
        out = ScaleLevel::LARGE;
    } else {
        return false;
    }
    return true;
}

bool
parseBool(const std::string &s, bool &out)
{
    if (s == "1" || s == "true" || s == "yes" || s == "on") {
        out = true;
    } else if (s == "0" || s == "false" || s == "no" || s == "off") {
        out = false;
    } else {
        return false;
    }
    return true;
}

bool
parseList(const std::string &s, std::vector<std::uint32_t> &out)
{
    out.clear();
    std::stringstream in(s);
    std::string item;
    while (std::getline(in, item, ',')) {
        std::uint32_t v = 0;
        if (item.empty() || !parseU32(item, v) || v == 0)
            return false;
        out.push_back(v);
    }
    return !out.empty();
}

} // namespace

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

    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--benchmark" || a == "-b") {
            if (!need_value(i, a))
                return result;
            o.benchmark = args[++i];
        } else if (a == "--trace") {
            if (!need_value(i, a))
                return result;
            o.traceFile = args[++i];
        } else if (a == "--scale") {
            if (!need_value(i, a))
                return result;
            if (!parseScale(args[++i], o.scale)) {
                result.error = "bad --scale (small|default|large)";
                return result;
            }
        } else if (a == "--refs") {
            if (!need_value(i, a))
                return result;
            if (!parseU64(args[++i], o.refs) || o.refs == 0) {
                result.error = "bad --refs value";
                return result;
            }
        } else if (a == "--sample") {
            o.timeSample = true;
        } else if (a == "--streams") {
            if (!need_value(i, a))
                return result;
            if (!parseU32(args[++i], o.streams) || o.streams == 0) {
                result.error = "bad --streams value";
                return result;
            }
        } else if (a == "--depth") {
            if (!need_value(i, a))
                return result;
            if (!parseU32(args[++i], o.depth) || o.depth == 0) {
                result.error = "bad --depth value";
                return result;
            }
        } else if (a == "--filter") {
            o.unitFilter = true;
        } else if (a == "--czone") {
            if (!need_value(i, a))
                return result;
            std::uint32_t bits = 0;
            if (!parseU32(args[++i], bits) || bits == 0 || bits >= 64) {
                result.error = "bad --czone bits";
                return result;
            }
            o.czoneBits = bits;
        } else if (a == "--min-delta") {
            o.minDelta = true;
        } else if (a == "--partitioned") {
            o.partitioned = true;
        } else if (a == "--victim") {
            if (!need_value(i, a))
                return result;
            if (!parseU32(args[++i], o.victimEntries)) {
                result.error = "bad --victim value";
                return result;
            }
        } else if (a == "--no-streams") {
            o.noStreams = true;
        } else if (a == "--shuffled-pages") {
            o.shuffledPages = true;
        } else if (a == "--page-bits") {
            if (!need_value(i, a))
                return result;
            if (!parseU32(args[++i], o.pageBits) || o.pageBits < 6 ||
                o.pageBits >= 32) {
                result.error = "bad --page-bits value";
                return result;
            }
        } else if (a == "--l2") {
            if (!need_value(i, a))
                return result;
            if (!parseU32(args[++i], o.l2KiloBytes) ||
                o.l2KiloBytes == 0 || !isPowerOf2(o.l2KiloBytes)) {
                result.error = "bad --l2 size (KB, power of two)";
                return result;
            }
        } else if (a == "--l2-model") {
            if (!need_value(i, a))
                return result;
            std::optional<L2ModelKind> kind = parseL2Model(args[++i]);
            if (!kind) {
                result.error =
                    "bad --l2-model (simulated|analytic|both)";
                return result;
            }
            o.l2Model = *kind;
        } else if (a == "--fidelity") {
            if (!need_value(i, a))
                return result;
            std::optional<Fidelity> fidelity =
                parseFidelity(args[++i]);
            if (!fidelity) {
                result.error = "bad --fidelity (exact|sampled)";
                return result;
            }
            o.fidelity = *fidelity;
        } else if (a == "--bus") {
            if (!need_value(i, a))
                return result;
            if (!parseU32(args[++i], o.busCycles)) {
                result.error = "bad --bus value";
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
        } else if (a == "--trace-cache") {
            if (!need_value(i, a))
                return result;
            bool on = true;
            if (!parseBool(args[++i], on)) {
                result.error = "bad --trace-cache value (on|off)";
                return result;
            }
            o.traceCache = on;
        } else if (a == "--values") {
            if (!need_value(i, a))
                return result;
            if (!parseList(args[++i], o.sweepValues)) {
                result.error = "bad --values list";
                return result;
            }
        } else if (a == "--jobs" || a == "-j") {
            if (!need_value(i, a))
                return result;
            if (!parseU32(args[++i], o.jobs)) {
                result.error = "bad --jobs value";
                return result;
            }
        } else {
            result.error = "unknown option: " + a;
            return result;
        }
    }

    // Cross-option validation.
    if (o.czoneBits && o.minDelta) {
        result.error = "--czone and --min-delta are mutually exclusive";
        return result;
    }
    if ((o.czoneBits || o.minDelta) && !o.unitFilter) {
        result.error =
            "stride detection requires --filter (the non-unit filter "
            "sits behind the unit-stride filter)";
        return result;
    }
    if (o.command == Command::RUN || o.command == Command::SWEEP ||
        o.command == Command::CAPTURE || o.command == Command::ANALYZE) {
        if (o.benchmark.empty() && o.traceFile.empty()) {
            result.error = "need --benchmark or --trace";
            return result;
        }
        if (!o.benchmark.empty() && !o.traceFile.empty()) {
            result.error = "--benchmark and --trace are exclusive";
            return result;
        }
        if (!o.benchmark.empty() && !hasBenchmark(o.benchmark)) {
            result.error = "unknown benchmark: " + o.benchmark;
            return result;
        }
    }
    if (o.command == Command::CAPTURE && o.outFile.empty()) {
        result.error = "capture needs --out FILE";
        return result;
    }
    if (o.command != Command::RUN && o.command != Command::SWEEP &&
        (!o.jsonOut.empty() || !o.csvOut.empty() ||
         !o.eventsOut.empty())) {
        result.error =
            "--json-out/--csv-out/--events apply to run and sweep only";
        return result;
    }
    if (o.l2Model) {
        if (o.command != Command::RUN && o.command != Command::SWEEP) {
            result.error = "--l2-model applies to run and sweep only";
            return result;
        }
        if (*o.l2Model != L2ModelKind::SIMULATED &&
            o.l2KiloBytes == 0) {
            result.error = "--l2-model analytic|both needs --l2 KB "
                           "(the model predicts that cache)";
            return result;
        }
    }
    if (o.fidelity == Fidelity::SAMPLED) {
        if (o.command != Command::RUN && o.command != Command::SWEEP) {
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
        if (o.l2Model && *o.l2Model != L2ModelKind::SIMULATED) {
            result.error =
                "--fidelity sampled supports only --l2-model simulated "
                "(the analytic profile needs the full miss stream)";
            return result;
        }
    }
    if (o.command == Command::RUN || o.command == Command::SWEEP ||
        o.command == Command::CAPTURE || o.command == Command::ANALYZE) {
        // The execution core's own rules, field bounds included, so
        // the CLI accepts exactly what the daemon accepts.
        std::string err = service::validateSpec(toRunSpec(o));
        if (err.empty() && o.command == Command::SWEEP)
            err = service::validateSweepValues(o.sweepValues);
        if (!err.empty()) {
            result.error = err;
            return result;
        }
    }
    return result;
}

service::RunSpec
toRunSpec(const Options &o)
{
    service::RunSpec spec;
    spec.benchmark = o.benchmark;
    spec.traceFile = o.traceFile;
    spec.scale = o.scale;
    spec.refs = o.refs;
    spec.timeSample = o.timeSample;
    spec.streams = o.streams;
    spec.depth = o.depth;
    spec.unitFilter = o.unitFilter;
    spec.czoneBits = o.czoneBits;
    spec.minDelta = o.minDelta;
    spec.partitioned = o.partitioned;
    spec.victimEntries = o.victimEntries;
    spec.noStreams = o.noStreams;
    spec.shuffledPages = o.shuffledPages;
    spec.pageBits = o.pageBits;
    spec.l2KiloBytes = o.l2KiloBytes;
    spec.busCycles = o.busCycles;
    spec.l2Model = o.l2Model;
    spec.fidelity = o.fidelity;
    return spec;
}

MemorySystemConfig
toSystemConfig(const Options &o)
{
    return service::specSystemConfig(toRunSpec(o));
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
  --l2 KB                    add a unified secondary cache of KB kilobytes
  --l2-model M               L2 evaluation backend (run and sweep):
                             simulated (default), analytic = one-pass
                             reuse-distance prediction, both = run the
                             two and report the absolute error (also
                             SBSIM_L2_MODEL; analytic/both need --l2)
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
  --stats                    dump full component statistics
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
