/**
 * @file
 * The harness side of the three benchmark workloads. perfbench/run.py
 * owns seeding, process launch, the daemon client and the final
 * metrics; the harness runs the in-process work and reports raw
 * measurements as one JSON line.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "inputs.hh"

namespace perfbench {

struct Options
{
    double seconds = 10;
    /** Sweep workers / concurrent runs; at most nproc. */
    unsigned workers = 4;
    /** Traced run: the untraced window, then the layer
     *  decomposition, each input once without spans and once with. */
    bool trace = false;
    /** Spans file (JSON lines) written at exit of a traced run. */
    std::string spansOut;
};

/** One timed repetition of the untraced window. */
struct RepSample
{
    double refs = 0;  ///< References the answers represent.
    double ops = 0;   ///< Requests: sweep jobs or runs.
    double wallS = 0;
    double cpuS = 0;  ///< Process user + system CPU.
    double rssKb = 0; ///< Process peak RSS during the repetition.
};

/** Raw measurements of one harness run. */
struct Report
{
    /** The untraced window, one sample per repetition. */
    std::vector<RepSample> reps;
    /** Per-request latency of the untraced window. */
    std::vector<double> latenciesMs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> accuracy;
    /** Per-layer metrics (traced runs only). */
    std::map<std::string, double> layers;
    std::string digest;
    std::vector<std::string> errors;

    void writeJson(std::ostream &os) const;
};

/** @p ready is called once the first timed operation can start. */
Report runPaperSweeps(const std::vector<PaperJob> &jobs,
                      const Options &opt,
                      const std::function<void()> &ready);

Report runDistinctRuns(const std::vector<RequestInput> &runs,
                       const Options &opt,
                       const std::function<void()> &ready);

/**
 * serve_mixed's in-process reference pass: execute each distinct
 * request as sbsim-serve would (two executors, two sweep workers each,
 * shared trace cache), print one JSON line per request with its
 * response document, timings and stream hit rates (plus the exact
 * counterpart's for sampled requests), in input order.
 */
Report runServeReference(const std::vector<RequestInput> &requests,
                         const Options &opt, std::ostream &lines);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
