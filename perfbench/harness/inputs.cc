#include "inputs.hh"

#include <stdexcept>

#include "service/json.hh"
#include "trace/time_sampler.hh"
#include "workloads/benchmark.hh"

namespace perfbench {

using namespace sbsim;

WorkloadSpec
PaperJob::workloadSpec() const
{
    WorkloadSpec spec = findBenchmark(benchmark).makeSpec(
        ScaleLevel::DEFAULT);
    if (seed)
        spec.seed = *seed;
    return spec;
}

MemorySystemConfig
PaperJob::config() const
{
    if (czone) {
        return paperSystemConfig(streams, AllocationPolicy::UNIT_FILTER,
                                 StrideDetection::CZONE, *czone);
    }
    return paperSystemConfig(streams);
}

std::string
PaperJob::sourceKey() const
{
    return "perfbench|" + benchmark + '|' +
           (seed ? std::to_string(*seed) : std::string("registry")) +
           '|' + std::to_string(refs);
}

std::unique_ptr<TraceSource>
PaperJob::makeSource() const
{
    auto chain = std::make_unique<OwningSourceChain>();
    TraceSource &gen =
        chain->add(std::make_unique<ComposedWorkload>(workloadSpec()));
    chain->add(std::make_unique<TruncatingSource>(gen, refs));
    return chain;
}

SweepJob
PaperJob::sweepJob() const
{
    SweepJob job;
    job.label = label;
    job.config = config();
    job.sourceKey = sourceKey();
    PaperJob self = *this;
    job.makeSource = [self] { return self.makeSource(); };
    return job;
}

namespace {

const service::JsonValue &
member(const service::JsonValue &obj, const char *key)
{
    const service::JsonValue *v = obj.find(key);
    if (!v)
        throw std::runtime_error(std::string("input line lacks \"") +
                                 key + '"');
    return *v;
}

std::uint64_t
uintMember(const service::JsonValue &obj, const char *key)
{
    const service::JsonValue &v = member(obj, key);
    if (v.kind() != service::JsonValue::Kind::UINT)
        throw std::runtime_error(std::string("\"") + key +
                                 "\" must be a non-negative integer");
    return v.uintValue();
}

} // namespace

std::vector<PaperJob>
readPaperJobs(std::istream &in)
{
    std::vector<PaperJob> jobs;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        service::JsonParseResult parsed = service::parseJson(line);
        if (!parsed.ok())
            throw std::runtime_error("bad job line: " + parsed.error);
        const service::JsonValue &obj = parsed.value;
        PaperJob job;
        job.label = member(obj, "label").stringValue();
        job.benchmark = member(obj, "benchmark").stringValue();
        if (!hasBenchmark(job.benchmark))
            throw std::runtime_error("unknown benchmark " + job.benchmark);
        if (obj.find("seed"))
            job.seed = uintMember(obj, "seed");
        job.refs = uintMember(obj, "refs");
        job.streams = static_cast<std::uint32_t>(
            uintMember(obj, "streams"));
        if (obj.find("czone"))
            job.czone = static_cast<unsigned>(uintMember(obj, "czone"));
        if (job.refs == 0 || job.streams == 0)
            throw std::runtime_error("refs and streams must be positive");
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<RequestInput>
readRequests(std::istream &in)
{
    std::vector<RequestInput> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        service::RequestParse parsed = service::parseRequest(line);
        if (!parsed.ok())
            throw std::runtime_error("bad request line: " + parsed.error);
        out.push_back({line, std::move(parsed.request)});
    }
    return out;
}

} // namespace perfbench
