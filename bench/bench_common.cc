#include "bench_common.hh"

#include <cstdint>
#include <map>

#include "util/env.hh"
#include "util/table.hh"

namespace sbsim {
namespace bench {

std::uint64_t
refLimit()
{
    // Read once, so a malformed value warns once, not once per run.
    static const std::uint64_t limit =
        envUnsigned("SBSIM_BENCH_REFS", 1, UINT64_MAX).value_or(1500000);
    return limit;
}

bool
useTimeSampling()
{
    static const bool sample =
        envBool("SBSIM_BENCH_SAMPLE").value_or(false);
    return sample;
}

RunOutput
runBenchmark(const std::string &benchmark_name, ScaleLevel level,
             const MemorySystemConfig &config)
{
    return runJob(job(benchmark_name, level, config), false);
}

SweepJob
job(const std::string &benchmark_name, ScaleLevel level,
    const MemorySystemConfig &config, std::string label)
{
    return benchmarkJob(benchmark_name, level, config, std::move(label),
                        refLimit(), useTimeSampling());
}

void
ThroughputLog::record(const std::vector<SweepResult> &results)
{
    runs_ += results.size();
    for (const SweepResult &r : results)
        refs_ += r.references;
}

void
ThroughputLog::print(std::ostream &out, double wall_seconds,
                     unsigned workers) const
{
    double aggregate =
        wall_seconds > 0 ? static_cast<double>(refs_) / wall_seconds : 0;
    out << "\nbench: " << runs_ << " runs, " << refs_ << " refs in "
        << fmt(wall_seconds, 2) << " s (" << fmt(aggregate, 0)
        << " refs/s aggregate, " << workers << " workers)\n";
}

std::optional<PaperReference>
paperReference(const std::string &benchmark_name)
{
    // Fig. 3 hit rates are read off the figure (+-3%); Table 2 and
    // Table 3 values are printed in the paper.
    static const std::map<std::string, PaperReference> refs = {
        {"embar", {99, 8, 1, 99}},    {"mgrid", {78, 36, 13, 86}},
        {"cgm", {85, 30, 3, 97}},     {"fftpde", {26, 158, 41, 59}},
        {"is", {76, 48, 4, 93}},      {"appsp", {33, 134, 5, 84}},
        {"appbt", {65, 62, 63, 37}},  {"applu", {62, 38, 22, 64}},
        {"spec77", {73, 44, 14, 84}}, {"adm", {27, 150, 73, 9}},
        {"bdna", {66, 68, 36, 33}},   {"dyfesm", {46, 108, 50, 25}},
        {"mdg", {56, 76, 32, 46}},    {"qcd", {57, 74, 50, 43}},
        {"trfd", {52, 96, 7, 90}},
    };
    auto it = refs.find(benchmark_name);
    if (it == refs.end())
        return std::nullopt;
    return it->second;
}

} // namespace bench
} // namespace sbsim
