/**
 * @file
 * Shared plumbing for the paper-reproduction benchmark binaries: a
 * reference-count budget (overridable via SBSIM_BENCH_REFS), helpers
 * that run one benchmark through a configured system, and the paper's
 * published numbers for side-by-side comparison in every table.
 */

#ifndef STREAMSIM_BENCH_BENCH_COMMON_HH
#define STREAMSIM_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "workloads/benchmark.hh"

namespace sbsim {
namespace bench {

/**
 * Per-run reference budget: SBSIM_BENCH_REFS, a plain decimal of at
 * least 1, else 1.5M. Parsed strictly (util/env.hh): a malformed value
 * warns and the default applies.
 */
std::uint64_t refLimit();

/** Whether to time-sample the trace as the paper did (10k on / 90k
 *  off): SBSIM_BENCH_SAMPLE, a strict boolean (1/true/yes/on), off by
 *  default because it multiplies generation work tenfold for the same
 *  simulated refs. A malformed value warns and counts as off. */
bool useTimeSampling();

/**
 * Run @p benchmark_name at @p level through @p config, honouring the
 * reference budget and optional time sampling: job() served as a
 * one-job sweep with the trace store off.
 */
RunOutput runBenchmark(const std::string &benchmark_name, ScaleLevel level,
                       const MemorySystemConfig &config);

/**
 * SweepJob for @p benchmark_name at @p level through @p config,
 * honouring the reference budget and optional time sampling — the
 * parallel-sweep counterpart of runBenchmark().
 */
SweepJob job(const std::string &benchmark_name, ScaleLevel level,
             const MemorySystemConfig &config, std::string label = "");

/**
 * Accumulates run counts and reference totals across one or more
 * sweep grids, and prints the bench-hygiene footer (total wall-clock
 * and aggregate refs/s) that BENCH_*.json trajectories track.
 */
class ThroughputLog
{
  public:
    void record(const std::vector<SweepResult> &results);

    /** Print "N runs, R refs in W s (T refs/s aggregate, J workers)". */
    void print(std::ostream &out, double wall_seconds,
               unsigned workers) const;

  private:
    std::uint64_t runs_ = 0;
    std::uint64_t refs_ = 0;
};

/** Paper reference values (approximate where read from a figure). */
struct PaperReference
{
    /** Fig. 3 stream hit rate at 10 streams, %, approx. */
    double fig3HitRate;
    /** Table 2 extra bandwidth of ordinary streams, %. */
    double table2EB;
    /** Table 3 share of hits from streams of length 1-5, %. */
    double table3Short;
    /** Table 3 share of hits from streams longer than 20, %. */
    double table3Long;
};

/** Reference numbers for @p benchmark_name; nullopt if not tabulated. */
std::optional<PaperReference> paperReference(
    const std::string &benchmark_name);

} // namespace bench
} // namespace sbsim

#endif // STREAMSIM_BENCH_BENCH_COMMON_HH
