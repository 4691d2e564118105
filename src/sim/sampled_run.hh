/**
 * @file
 * Sampled-fidelity execution: run only a sampling plan's
 * representative intervals, each on a fresh MemorySystem reading two
 * ranged views of the trace (an uncounted warmup prefix, then the
 * measured interval), and reconstruct full-trace metrics from the
 * cluster-weighted sums of the intervals' RunCounts, with a jackknife
 * error bar on the L1 miss rate. The rates come from the same
 * derivation as a full run's (deriveResults). The public knob is the
 * Fidelity enum behind --fidelity=exact|sampled.
 */

#ifndef STREAMSIM_SIM_SAMPLED_RUN_HH
#define STREAMSIM_SIM_SAMPLED_RUN_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "sim/experiment.hh"
#include "trace/phase_profile.hh"

namespace sbsim {

/** How much of the trace a run actually simulates. */
enum class Fidelity : std::uint8_t {
    EXACT,   ///< Simulate every reference (the default).
    SAMPLED, ///< Simulate representative intervals, estimate the rest.
};

/** Parse "exact" / "sampled"; nullopt on anything else. */
std::optional<Fidelity> parseFidelity(const std::string &text);

const char *toString(Fidelity fidelity);

/**
 * Execute @p plan over @p trace under @p config: for each selected
 * interval, run its warmup prefix (uncounted, via
 * MemorySystem::endWarmup), measure the interval, then combine the
 * per-interval counts weighted by cluster size. Each count is its
 * rounded weighted sum; the cycle total is the sum of the rounded
 * components, so the breakdown still accounts exactly for it; every
 * rate is a ratio of unrounded weighted sums. The Table 3 shares are
 * a reference-weighted mean of the intervals' shares, warmup
 * included. The RunOutput's sampling report carries the plan shape
 * and the jackknife (leave-one-cluster-out) standard error of the L1
 * miss rate.
 */
RunOutput runSampled(const std::shared_ptr<const MaterializedTrace> &trace,
                     const SamplingPlan &plan,
                     const MemorySystemConfig &config);

} // namespace sbsim

#endif // STREAMSIM_SIM_SAMPLED_RUN_HH
