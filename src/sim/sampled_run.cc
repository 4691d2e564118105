#include "sim/sampled_run.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.hh"

namespace sbsim {
namespace {

/** One measured interval: its weight, its counts net of the warmup
 *  prefix, and its Table 3 shares, warmup included. */
struct IntervalMeasure
{
    double weight = 1.0;
    RunCounts counts;
    std::vector<double> lengthShares;
};

std::uint64_t
roundCount(double v)
{
    return v <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
}

} // namespace

std::optional<Fidelity>
parseFidelity(const std::string &text)
{
    if (text == "exact")
        return Fidelity::EXACT;
    if (text == "sampled")
        return Fidelity::SAMPLED;
    return std::nullopt;
}

const char *
toString(Fidelity fidelity)
{
    return fidelity == Fidelity::SAMPLED ? "sampled" : "exact";
}

RunOutput
runSampled(const std::shared_ptr<const MaterializedTrace> &trace,
           const SamplingPlan &plan,
           const MemorySystemConfig &config)
{
    SBSIM_ASSERT(trace != nullptr, "runSampled needs a trace");
    SBSIM_ASSERT(!plan.selected.empty(),
                 "runSampled needs a non-empty plan");
    SBSIM_ASSERT(plan.totalRefs == trace->size(),
                 "sampling plan built for a different trace (",
                 plan.totalRefs, " refs vs ", trace->size(), ")");

    // Measure every selected interval on a fresh system: the warmup
    // range, endWarmup(), then the measured range.
    std::vector<IntervalMeasure> measures;
    measures.reserve(plan.selected.size());
    for (const SampledInterval &interval : plan.selected) {
        MemorySystem system(config);
        SharedTraceView warmup(trace, interval.warmupBegin, interval.begin);
        system.run(warmup);
        system.endWarmup();
        SharedTraceView measured(trace, interval.begin,
                                 interval.begin + interval.length);
        system.run(measured);
        // finishCounts() flushes the streams, whose lengths the
        // shares then include.
        RunCounts measuredCounts = system.finishCounts();
        measures.push_back({interval.weight, measuredCounts,
                            system.lengthSharesPercent()});
    }

    // Weighted reconstruction, once per run in interval order: each
    // count is its weighted sum, rounded on its own; every rate is a
    // ratio of unrounded weighted sums. The cycle breakdown is rounded
    // per component, so the total is their sum and still accounts for
    // every reported cycle.
    RunCounts counts;
    forEachCount([&](auto count) {
        double sum = 0;
        for (const IntervalMeasure &m : measures)
            sum += m.weight * static_cast<double>(count(m.counts));  // analyze:allow(float-accum) weighted estimate, deterministic order
        count(counts) = roundCount(sum);
    });
    counts.cycles = counts.cycleBreakdown.total();
    RateOperands sums;
    for (const IntervalMeasure &m : measures)
        sums.add(m.counts, m.weight);

    RunOutput out;
    out.results = deriveResults(counts, sums);
    out.engineStats = counts.engine;

    // Table 3 shares: a reference-weighted mean of the per-interval
    // shares, each over its interval and warmup prefix (the stream
    // lengths are not counts the intervals report).
    std::size_t shareDims = 0;
    for (const IntervalMeasure &m : measures)
        shareDims = std::max(shareDims, m.lengthShares.size());
    if (shareDims > 0 && sums.references > 0) {
        out.lengthSharesPercent.assign(shareDims, 0.0);
        for (std::size_t j = 0; j < shareDims; ++j) {
            double sum = 0;
            for (const IntervalMeasure &m : measures) {
                double refs =
                    static_cast<double>(m.counts.frontEnd.references());
                double share =
                    j < m.lengthShares.size() ? m.lengthShares[j] : 0.0;
                sum += m.weight * (refs * share);  // analyze:allow(float-accum) weighted estimate, deterministic order
            }
            out.lengthSharesPercent[j] = sum / sums.references;
        }
    }

    // Jackknife error bar: recompute the overall miss rate with each
    // cluster left out; the spread of those leave-one-out estimates
    // bounds the sampling error of the reported rate.
    SamplingReport &sp = out.sampling;
    const std::size_t n = measures.size();
    if (n >= 2 && sums.accesses > 0) {
        std::vector<double> leaveOut;
        leaveOut.reserve(n);
        double mean = 0;
        for (const IntervalMeasure &m : measures) {
            const FrontEndCounts &fe = m.counts.frontEnd;
            double mk = sums.l1Misses -
                        m.weight * static_cast<double>(fe.l1Misses);
            double ak = sums.accesses -
                        m.weight * static_cast<double>(fe.instructionRefs +
                                                       fe.dataRefs);
            double rate = percentOf(mk, ak);
            leaveOut.push_back(rate);
            mean += rate / static_cast<double>(n);  // analyze:allow(float-accum) jackknife estimate, deterministic order
        }
        double variance = 0;
        for (double rate : leaveOut) {
            double d = rate - mean;
            variance += d * d;  // analyze:allow(float-accum) jackknife estimate, deterministic order
        }
        variance *= static_cast<double>(n - 1) / static_cast<double>(n);
        sp.missRateStderrPct = std::sqrt(variance);
    }
    sp.mode = toString(Fidelity::SAMPLED);
    sp.timeSampler = trace->samplerCounts().value_or(SamplerCounts{});
    sp.intervalsTotal = plan.intervalsTotal;
    sp.intervalsSelected = plan.selected.size();
    sp.intervalRefs = plan.config.intervalRefs;
    sp.warmupRefs = plan.warmupTotal();
    sp.simulatedRefs = plan.simulatedRefs();
    sp.estimatedRefs = out.results.references;
    return out;
}

} // namespace sbsim
