/**
 * @file
 * The harness's inputs. perfbench/run.py generates every input from
 * the workload seed and hands it over on stdin, one JSON object per
 * line; the harness derives nothing from the seed itself.
 *
 *  - paper_sweeps: one line per sweep job,
 *      {"label": "adm:s3", "benchmark": "adm", "seed": 123,
 *       "refs": 1500000, "streams": 3[, "czone": 14]}
 *    "seed" replaces the registry WorkloadSpec seed (absent = keep
 *    the registry's own); "czone" selects the Fig. 9 configuration.
 *  - distinct_runs and serve requests: sbsim-serve request lines,
 *    parsed by the service's own parseRequest.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "service/protocol.hh"
#include "sim/sweep_runner.hh"

namespace perfbench {

/** One Fig. 3 / Fig. 9 sweep job. */
struct PaperJob
{
    std::string label;
    std::string benchmark;
    std::optional<std::uint64_t> seed;
    std::uint64_t refs = 0;
    std::uint32_t streams = 10;
    std::optional<unsigned> czone;

    sbsim::WorkloadSpec workloadSpec() const;
    sbsim::MemorySystemConfig config() const;
    std::string sourceKey() const;
    /** A fresh private source chain: generator + truncation. */
    std::unique_ptr<sbsim::TraceSource> makeSource() const;
    sbsim::SweepJob sweepJob() const;
};

/** One request line and its parse. */
struct RequestInput
{
    std::string line;
    sbsim::service::Request request;
};

/** Parse paper_sweeps job lines; throws std::runtime_error. */
std::vector<PaperJob> readPaperJobs(std::istream &in);

/** Parse request lines; throws std::runtime_error. */
std::vector<RequestInput> readRequests(std::istream &in);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
