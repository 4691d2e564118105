#include "run_spec.hh"

#include <limits>
#include <memory>

#include "trace/file_trace.hh"
#include "trace/time_sampler.hh"
#include "util/bitutil.hh"
#include "util/env.hh"

namespace sbsim {
namespace service {

namespace {

std::optional<ScaleLevel>
parseScale(const std::string &text)
{
    if (text == "small")
        return ScaleLevel::SMALL;
    if (text == "default")
        return ScaleLevel::DEFAULT;
    if (text == "large")
        return ScaleLevel::LARGE;
    return std::nullopt;
}

/** Store @p parsed in @p out, or name the @p words it must be. */
template <typename T, typename Out>
std::string
setWord(std::optional<T> parsed, Out &out, const char *words)
{
    if (!parsed)
        return std::string("must be ") + words;
    out = *parsed;
    return "";
}

/** Parse @p text as a decimal that fits @p out. */
template <typename T>
std::string
setNumber(const std::string &text, T &out)
{
    std::optional<std::uint64_t> value = parseUnsignedStrict(text);
    if (!value)
        return "must be a non-negative integer";
    if (*value > std::numeric_limits<T>::max())
        return "does not fit in " + std::to_string(8 * sizeof(T)) +
               " bits";
    out = static_cast<T>(*value);
    return "";
}

template <auto Field>
std::string
setText(RunSpec &spec, const std::string &text)
{
    spec.*Field = text;
    return "";
}

template <auto Field>
std::string
setNumberField(RunSpec &spec, const std::string &text)
{
    return setNumber(text, spec.*Field);
}

template <auto Field>
std::string
setSwitch(RunSpec &spec, const std::string &text)
{
    return setWord(parseBoolStrict(text), spec.*Field, "a boolean");
}

constexpr SpecField kSpecFields[] = {
    {"benchmark", SpecArg::WORD, setText<&RunSpec::benchmark>, "-b"},
    {"trace", SpecArg::WORD, setText<&RunSpec::traceFile>},
    {"scale", SpecArg::WORD,
     [](RunSpec &spec, const std::string &text) {
         return setWord(parseScale(text), spec.scale,
                        "small|default|large");
     }},
    {"refs", SpecArg::NUMBER, setNumberField<&RunSpec::refs>},
    {"sample", SpecArg::SWITCH, setSwitch<&RunSpec::timeSample>},
    {"streams", SpecArg::NUMBER, setNumberField<&RunSpec::streams>},
    {"depth", SpecArg::NUMBER, setNumberField<&RunSpec::depth>},
    {"filter", SpecArg::SWITCH, setSwitch<&RunSpec::unitFilter>},
    {"czone", SpecArg::NUMBER,
     [](RunSpec &spec, const std::string &text) {
         unsigned bits = 0;
         std::string err = setNumber(text, bits);
         if (err.empty())
             spec.czoneBits = bits;
         return err;
     }},
    {"min_delta", SpecArg::SWITCH, setSwitch<&RunSpec::minDelta>},
    {"partitioned", SpecArg::SWITCH, setSwitch<&RunSpec::partitioned>},
    {"victim", SpecArg::NUMBER, setNumberField<&RunSpec::victimEntries>},
    {"no_streams", SpecArg::SWITCH, setSwitch<&RunSpec::noStreams>},
    {"shuffled_pages", SpecArg::SWITCH,
     setSwitch<&RunSpec::shuffledPages>},
    {"page_bits", SpecArg::NUMBER, setNumberField<&RunSpec::pageBits>},
    {"l2", SpecArg::NUMBER, setNumberField<&RunSpec::l2KiloBytes>},
    {"l2_model", SpecArg::WORD,
     [](RunSpec &spec, const std::string &text) {
         return setWord(parseL2Model(text), spec.l2Model,
                        "simulated|analytic|both");
     }},
    {"fidelity", SpecArg::WORD,
     [](RunSpec &spec, const std::string &text) {
         return setWord(parseFidelity(text), spec.fidelity,
                        "exact|sampled");
     }},
    {"bus", SpecArg::NUMBER, setNumberField<&RunSpec::busCycles>},
};

} // namespace

std::span<const SpecField>
specFields()
{
    return kSpecFields;
}

const SpecField *
findSpecField(std::string_view key)
{
    for (const SpecField &field : kSpecFields) {
        if (field.key == key)
            return &field;
    }
    return nullptr;
}

std::string
validateSpec(const RunSpec &spec)
{
    if (spec.benchmark.empty() && spec.traceFile.empty())
        return "need a benchmark or a trace file";
    if (!spec.benchmark.empty() && !spec.traceFile.empty())
        return "benchmark and trace file are exclusive";
    if (!spec.benchmark.empty() && !hasBenchmark(spec.benchmark))
        return "unknown benchmark: " + spec.benchmark;
    if (spec.refs == 0)
        return "refs must be positive";
    if (std::string err = validateStreamCount(spec.streams); !err.empty())
        return err;
    if (spec.depth == 0)
        return "depth must be positive";
    if (spec.depth > StreamSet::kMaxDepth)
        return "depth must be at most " +
               std::to_string(StreamSet::kMaxDepth);
    if (spec.victimEntries > kMaxVictimEntries)
        return "victim entries must be at most " +
               std::to_string(kMaxVictimEntries);
    if (spec.czoneBits && (*spec.czoneBits == 0 || *spec.czoneBits >= 64))
        return "czone bits must be in [1, 63]";
    if (spec.pageBits < 6 || spec.pageBits >= 32)
        return "page bits must be in [6, 31]";
    if (spec.l2KiloBytes != 0 && !isPowerOf2(spec.l2KiloBytes))
        return "l2 size must be a power of two (KB)";
    if (spec.czoneBits && spec.minDelta)
        return "czone and min-delta are mutually exclusive";
    if ((spec.czoneBits || spec.minDelta) && !spec.unitFilter)
        return "stride detection requires the unit filter (the "
               "non-unit filter sits behind the unit-stride filter)";
    if (spec.l2Model && *spec.l2Model != L2ModelKind::SIMULATED &&
        spec.l2KiloBytes == 0)
        return "l2 model analytic|both needs a secondary cache "
               "(the model predicts that cache)";
    if (spec.fidelity == Fidelity::SAMPLED && spec.l2Model &&
        *spec.l2Model != L2ModelKind::SIMULATED)
        return "fidelity sampled supports only the simulated l2 model "
               "(the analytic profile needs the full miss stream)";
    return "";
}

std::string
validateStreamCount(std::uint32_t streams)
{
    if (streams == 0)
        return "streams must be positive";
    if (streams > StreamSet::kMaxStreams)
        return "streams must be at most " +
               std::to_string(StreamSet::kMaxStreams);
    return "";
}

std::string
validateSweepValues(const std::vector<std::uint32_t> &values)
{
    if (values.empty())
        return "values: must not be empty";
    for (std::uint32_t v : values) {
        if (std::string err = validateStreamCount(v); !err.empty())
            return "values: " + err;
    }
    return "";
}

MemorySystemConfig
specSystemConfig(const RunSpec &spec)
{
    AllocationPolicy policy = spec.unitFilter
                                  ? AllocationPolicy::UNIT_FILTER
                                  : AllocationPolicy::ALWAYS;
    StrideDetection stride = StrideDetection::NONE;
    unsigned czone_bits = 18;
    if (spec.czoneBits) {
        stride = StrideDetection::CZONE;
        czone_bits = *spec.czoneBits;
    } else if (spec.minDelta) {
        stride = StrideDetection::MIN_DELTA;
    }

    MemorySystemConfig config =
        paperSystemConfig(spec.streams, policy, stride, czone_bits);
    config.useStreams = !spec.noStreams;
    config.streams.depth = spec.depth;
    config.streams.partitioned = spec.partitioned;
    config.victimBufferEntries = spec.victimEntries;
    if (spec.shuffledPages)
        config.translation = TranslationMode::SHUFFLED;
    config.pageBits = spec.pageBits;
    if (spec.l2KiloBytes > 0) {
        config.useL2 = true;
        config.l2.sizeBytes = std::uint64_t{spec.l2KiloBytes} * 1024;
    }
    config.busCyclesPerBlock = spec.busCycles;
    return config;
}

std::unique_ptr<TraceSource>
makeSpecInput(const RunSpec &spec)
{
    std::unique_ptr<TraceSource> base;
    if (spec.benchmark.empty())
        base = std::make_unique<TraceReader>(spec.traceFile);
    else
        base = findBenchmark(spec.benchmark).makeWorkload(spec.scale);
    return makeInputChain(std::move(base), spec.timeSample, spec.refs);
}

std::string
specSourceKey(const RunSpec &spec)
{
    return inputKey(spec.benchmark.empty() ? "file:" + spec.traceFile
                                           : "bench:" + spec.benchmark,
                    spec.scale, spec.refs, spec.timeSample);
}

L2ModelKind
effectiveL2Model(const RunSpec &spec)
{
    return spec.l2Model.value_or(L2ModelKind::SIMULATED);
}

RunExecution
executeRun(const RunSpec &spec, EventTrace *events,
           bool use_trace_cache,
           const std::function<void(MemorySystem &)> &inspect)
{
    SweepJob job = std::move(buildSweepJobs(spec, {spec.streams}).front());
    job.eventTrace = events;
    RunExecution exec;
    exec.output = runJob(job, use_trace_cache, inspect);
    exec.references = exec.output.results.references;
    return exec;
}

std::vector<SweepJob>
buildSweepJobs(const RunSpec &spec,
               const std::vector<std::uint32_t> &values,
               std::vector<EventTrace> *event_traces)
{
    const std::string source_key = specSourceKey(spec);
    const L2ModelKind l2_model = effectiveL2Model(spec);
    std::vector<SweepJob> jobs;
    jobs.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        RunSpec point = spec;
        point.streams = values[i];
        SweepJob job;
        job.label = std::to_string(values[i]);
        job.config = specSystemConfig(point);
        job.sourceKey = source_key;
        job.l2Model = l2_model;
        job.fidelity = spec.fidelity;
        job.makeSource = [point] { return makeSpecInput(point); };
        if (event_traces)
            job.eventTrace = &(*event_traces)[i];
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace service
} // namespace sbsim
