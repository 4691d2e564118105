#include "sim/sampled_run.hh"

#include <cmath>
#include <vector>

#include "trace/sampled_source.hh"
#include "util/logging.hh"

namespace sbsim {
namespace {

/** One measured interval: subtracted results plus its weight. */
struct IntervalMeasure
{
    double weight = 1.0;
    SystemResults res;
    StreamEngineStats es;
    std::vector<double> lengthShares;
    double victimRate = 0;
};

/** percent() for the weighted (double) sums. */
double
percentOf(double num, double denom)
{
    return denom == 0 ? 0.0 : 100.0 * num / denom;
}

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

    // Measure every selected interval on a fresh system: warmup
    // prefix, endWarmup(), measured interval. SampledSource gates the
    // two phases; run() returns at the phase boundary because the
    // source reports exhaustion until startMeasurement().
    std::vector<IntervalMeasure> measures;
    measures.reserve(plan.selected.size());
    for (const SampledInterval &interval : plan.selected) {
        MemorySystem system(config);
        SampledSource src(trace, interval);
        system.run(src);
        system.endWarmup();
        src.startMeasurement();
        system.run(src);
        RunOutput one = collectOutput(system);
        IntervalMeasure im;
        im.weight = interval.weight;
        im.res = one.results;
        im.es = one.engineStats;
        im.lengthShares = std::move(one.lengthSharesPercent);
        im.victimRate = one.victimHitRatePercent;
        measures.push_back(std::move(im));
    }

    // Weighted reconstruction. The weighted sums are inherently
    // fractional (cluster weights are ratios), so this is estimation
    // arithmetic, not counter bookkeeping; it happens once per run,
    // in deterministic interval order.
    auto wsum = [&measures](auto field) {
        double s = 0;
        for (const IntervalMeasure &im : measures)
            s += im.weight * field(im);  // analyze:allow(float-accum) weighted estimate, deterministic order
        return s;
    };
    auto wcount = [&wsum](auto field) { return roundCount(wsum(field)); };

    RunOutput out;
    SystemResults &r = out.results;
    r.instructionRefs =
        wcount([](const IntervalMeasure &m) {
            return static_cast<double>(m.res.instructionRefs);
        });
    r.dataRefs = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.dataRefs);
    });
    r.swPrefetches = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.swPrefetches);
    });
    r.swPrefetchesIssued = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.swPrefetchesIssued);
    });
    r.swPrefetchesRedundant = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.swPrefetchesRedundant);
    });
    r.l1Misses = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.l1Misses);
    });
    r.l1DataMisses = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.l1DataMisses);
    });
    r.victimHits = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.victimHits);
    });
    r.writebacks = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.writebacks);
    });
    r.references = r.instructionRefs + r.dataRefs + r.swPrefetches;

    double accesses = wsum([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.instructionRefs +
                                   m.res.dataRefs);
    });
    double instr = wsum([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.instructionRefs);
    });
    double data = wsum([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.dataRefs);
    });
    double misses = wsum([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.l1Misses);
    });
    double dataMisses = wsum([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.l1DataMisses);
    });
    r.l1MissRatePercent = percentOf(misses, accesses);
    r.l1DataMissRatePercent = percentOf(dataMisses, data);
    r.missesPerInstructionPercent = percentOf(dataMisses, instr);

    StreamEngineStats &es = out.engineStats;
    es.lookups = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.es.lookups);
    });
    es.hits = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.es.hits);
    });
    es.streamMisses = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.es.streamMisses);
    });
    es.allocations = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.es.allocations);
    });
    es.prefetchesIssued = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.es.prefetchesIssued);
    });
    es.uselessFlushed = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.es.uselessFlushed);
    });
    es.uselessInvalidated = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.es.uselessInvalidated);
    });
    r.streamHits = es.hits;
    double lookups = wsum([](const IntervalMeasure &m) {
        return static_cast<double>(m.es.lookups);
    });
    r.streamHitRatePercent = percentOf(
        wsum([](const IntervalMeasure &m) {
            return static_cast<double>(m.es.hits);
        }),
        lookups);
    r.extraBandwidthPercent = percentOf(
        wsum([](const IntervalMeasure &m) {
            return static_cast<double>(m.es.uselessFlushed +
                                       m.es.uselessInvalidated);
        }),
        lookups);

    double l2Hits = wsum([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.l2Hits);
    });
    double l2Misses = wsum([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.l2Misses);
    });
    r.l2Hits = roundCount(l2Hits);
    r.l2Misses = roundCount(l2Misses);
    r.l2LocalHitRatePercent = percentOf(l2Hits, l2Hits + l2Misses);

    // Cycle breakdown: round per component and report their sum as
    // the total, preserving the exact-path invariant that the
    // components account for every reported cycle.
    CycleBreakdown &cb = r.cycleBreakdown;
    cb.l1Hit = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.cycleBreakdown.l1Hit);
    });
    cb.victimHit = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.cycleBreakdown.victimHit);
    });
    cb.streamHit = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.cycleBreakdown.streamHit);
    });
    cb.streamStall = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.cycleBreakdown.streamStall);
    });
    cb.demandFetch = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.cycleBreakdown.demandFetch);
    });
    cb.busQueue = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.cycleBreakdown.busQueue);
    });
    cb.swPrefetchIssue = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.cycleBreakdown.swPrefetchIssue);
    });
    r.cycles = cb.total();
    r.streamHitsReady = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.streamHitsReady);
    });
    r.streamHitsPending = wcount([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.streamHitsPending);
    });
    r.busQueueCycles = cb.busQueue;
    double cyclesEst = wsum([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.cycles);
    });
    double refsEst = wsum([](const IntervalMeasure &m) {
        return static_cast<double>(m.res.references);
    });
    r.avgAccessCycles = refsEst == 0 ? 0.0 : cyclesEst / refsEst;

    // Distribution shares and victim rate: reference-weighted means
    // of the per-interval percentages (documented approximation; the
    // underlying raw counts are not exported per interval).
    std::size_t shareDims = 0;
    for (const IntervalMeasure &im : measures)
        shareDims = std::max(shareDims, im.lengthShares.size());
    if (shareDims > 0 && refsEst > 0) {
        out.lengthSharesPercent.assign(shareDims, 0.0);
        for (std::size_t j = 0; j < shareDims; ++j) {
            out.lengthSharesPercent[j] =
                wsum([j](const IntervalMeasure &m) {
                    double share = j < m.lengthShares.size()
                                       ? m.lengthShares[j]
                                       : 0.0;
                    return static_cast<double>(m.res.references) * share;
                }) /
                refsEst;
        }
    }
    out.victimHitRatePercent =
        refsEst == 0 ? 0.0
                     : wsum([](const IntervalMeasure &m) {
                           return static_cast<double>(m.res.references) *
                                  m.victimRate;
                       }) / refsEst;

    // Jackknife error bar: recompute the overall miss rate with each
    // cluster left out; the spread of those leave-one-out estimates
    // bounds the sampling error of the reported rate.
    SamplingReport &sp = out.sampling;
    const std::size_t n = measures.size();
    if (n >= 2 && accesses > 0) {
        std::vector<double> leaveOut;
        leaveOut.reserve(n);
        double mean = 0;
        for (const IntervalMeasure &im : measures) {
            double mk = misses -
                        im.weight * static_cast<double>(im.res.l1Misses);
            double ak = accesses -
                        im.weight *
                            static_cast<double>(im.res.instructionRefs +
                                                im.res.dataRefs);
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
    sp.estimatedRefs = r.references;
    return out;
}

} // namespace sbsim
