/**
 * @file
 * Phase-aware representative-interval sampling plans.
 *
 * The exact simulator spends one unit of work per reference; the
 * sampled fidelity mode (--fidelity=sampled) spends it only on a few
 * representative intervals. This header holds the pieces that decide
 * *which* intervals:
 *
 *   1. a one-pass phase profiler over a materialized trace that
 *      counts, per fixed-size interval, a cheap locality signature —
 *      reuses by octave of reuse time, cold references (first touch
 *      of a block), and the instruction/store mix;
 *   2. a leader-style clusterer over those signatures (threshold
 *      doubling until at most maxClusters leaders remain) with a
 *      k-medoids refinement: each cluster is represented by the
 *      member minimizing total intra-cluster distance;
 *   3. a SamplingPlan: the selected medoid intervals, each with a
 *      warmup prefix (replayed but not counted) and a weight equal to
 *      cluster references / medoid references, so the weighted sum of
 *      per-interval reference counts reconstructs the full trace
 *      length exactly.
 *
 * Plans are deterministic functions of (trace bytes, config), so the
 * TraceCache can share one plan per source key across sweep jobs the
 * same way it shares materialized traces and miss streams.
 */

#ifndef STREAMSIM_TRACE_PHASE_PROFILE_HH
#define STREAMSIM_TRACE_PHASE_PROFILE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/materialized_trace.hh"

namespace sbsim {

/** Knobs of the phase profiler and interval selector. */
struct PhaseProfileConfig
{
    /** References per profiling interval (the sampling unit). */
    std::uint64_t intervalRefs = 5000;
    /** Warmup references replayed (uncounted) before each interval. */
    std::uint64_t warmupRefs = 1250;
    /** Maximum clusters, i.e. maximum intervals simulated. */
    std::uint32_t maxClusters = 5;
    /** Signature granularity in bytes (power of two). */
    std::uint32_t blockBytes = 32;
    /** Initial leader-clustering distance threshold (L1 on
     *  normalized signatures; doubled until clusters fit). */
    double leaderThreshold = 0.10;

    /** Stable cache-key suffix encoding every knob above. */
    std::string key() const;
};

/** One selected interval of a sampling plan. */
struct SampledInterval
{
    /** Position of the first measured reference. */
    std::uint64_t begin = 0;
    /** Measured references. */
    std::uint64_t length = 0;
    /** Warmup replay starts here (warmupBegin <= begin). */
    std::uint64_t warmupBegin = 0;
    /** Cluster references / interval references; scaling factor
     *  applied to every counter measured over this interval. */
    double weight = 1.0;

    std::uint64_t warmupLength() const { return begin - warmupBegin; }
};

/** A full sampling plan for one materialized trace. */
struct SamplingPlan
{
    PhaseProfileConfig config;
    /** References in the underlying trace. */
    std::uint64_t totalRefs = 0;
    /** Profiling intervals the trace was divided into. */
    std::uint64_t intervalsTotal = 0;
    /** True when sampling would not save work (short trace): the
     *  plan degenerates to one full-trace interval with weight 1 and
     *  no warmup, making the sampled run exact by construction. */
    bool exact = false;
    /** Selected intervals, ascending by begin. */
    std::vector<SampledInterval> selected;

    /** Measured (counted) references the plan simulates. */
    std::uint64_t
    simulatedRefs() const
    {
        std::uint64_t n = 0;
        for (const SampledInterval &s : selected)
            n += s.length;
        return n;
    }

    /** Warmup (uncounted) references the plan replays. */
    std::uint64_t
    warmupTotal() const
    {
        std::uint64_t n = 0;
        for (const SampledInterval &s : selected)
            n += s.warmupLength();
        return n;
    }

    /** Resident footprint, for TraceCache accounting. */
    std::size_t
    bytes() const
    {
        return sizeof(*this) +
               selected.capacity() * sizeof(SampledInterval);
    }
};

/** Reuse-time octaves in an IntervalProfile. Reuse times are
 *  bounded by the trace length, so 40 octaves cover any input. */
constexpr std::size_t kReuseOctaves = 40;

/** The raw locality counts of one profiling interval. */
struct IntervalProfile
{
    /** Position of the interval's first reference. */
    std::uint64_t begin = 0;
    /** References in the interval (intervalRefs, or fewer for the
     *  last one). */
    std::uint64_t length = 0;
    /** References to a block the trace had not touched before. */
    std::uint64_t cold = 0;
    std::uint64_t ifetch = 0;
    std::uint64_t stores = 0;
    /** Reuses by reuse time t, the positions since the previous
     *  touch of the same block: t lands in octave floorLog2(t) + 1,
     *  and the last octave also takes every longer time. */
    std::array<std::uint64_t, kReuseOctaves> reuse{};

    bool operator==(const IntervalProfile &) const = default;
};

/** Profile every intervalRefs-long interval of @p trace, in order.
 *  One pass; an empty trace has no intervals. */
std::vector<IntervalProfile>
profileIntervals(const MaterializedTrace &trace,
                 const PhaseProfileConfig &config = {});

/**
 * Cluster the @p profiles of one trace and select each cluster's
 * medoid interval. Deterministic; the weighted interval lengths sum
 * to the trace length, and a trace of at most one interval (or one
 * where sampling saves nothing) gets the exact plan.
 */
SamplingPlan selectIntervals(const std::vector<IntervalProfile> &profiles,
                             const PhaseProfileConfig &config = {});

/** Profile @p trace and select representative intervals:
 *  selectIntervals(profileIntervals(trace, config), config). */
SamplingPlan buildSamplingPlan(const MaterializedTrace &trace,
                               const PhaseProfileConfig &config = {});

} // namespace sbsim

#endif // STREAMSIM_TRACE_PHASE_PROFILE_HH
