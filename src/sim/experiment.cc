#include "experiment.hh"

#include <utility>

namespace sbsim {

MemorySystemConfig
paperSystemConfig(std::uint32_t num_streams, AllocationPolicy allocation,
                  StrideDetection stride, unsigned czone_bits)
{
    MemorySystemConfig config;
    config.l1 = SplitCacheConfig::paperDefault();
    config.useStreams = true;
    config.streams.numStreams = num_streams;
    config.streams.depth = 2;
    config.streams.blockSize = config.l1.dcache.blockSize;
    config.streams.allocation = allocation;
    config.streams.unitFilterEntries = 16;
    config.streams.strideDetection = stride;
    config.streams.strideFilterEntries = 16;
    config.streams.czoneBits = czone_bits;
    return config;
}

RunOutput
reportCounts(const RunCounts &counts, std::vector<double> length_shares)
{
    RunOutput out;
    out.results = deriveResults(counts);
    out.engineStats = counts.engine;
    out.lengthSharesPercent = std::move(length_shares);
    return out;
}

RunOutput
collectOutput(MemorySystem &system)
{
    const RunCounts counts = system.finishCounts();
    return reportCounts(counts, system.lengthSharesPercent());
}

MetricsRegistry
runMetrics(const RunOutput &out)
{
    const SystemResults &r = out.results;
    const StreamEngineStats &es = out.engineStats;
    MetricsRegistry reg;

    reg.section("run")
        .add("references", r.references)
        .add("instruction_refs", r.instructionRefs)
        .add("data_refs", r.dataRefs);

    reg.section("l1")
        .add("misses", r.l1Misses)
        .add("data_misses", r.l1DataMisses)
        .add("writebacks", r.writebacks)
        .add("miss_rate_pct", r.l1MissRatePercent)
        .add("data_miss_rate_pct", r.l1DataMissRatePercent)
        .add("misses_per_instruction_pct",
             r.missesPerInstructionPercent);

    reg.section("streams")
        .add("lookups", es.lookups)
        .add("hits", es.hits)
        .add("stream_misses", es.streamMisses)
        .add("allocations", es.allocations)
        .add("prefetches_issued", es.prefetchesIssued)
        .add("useless_flushed", es.uselessFlushed)
        .add("useless_invalidated", es.uselessInvalidated)
        .add("hit_rate_pct", r.streamHitRatePercent)
        .add("extra_bandwidth_pct", r.extraBandwidthPercent)
        .add("hits_ready", r.streamHitsReady)
        .add("hits_pending", r.streamHitsPending);

    // Table 3 buckets; zero-filled when streams are disabled so the
    // field set never varies with the configuration.
    static const char *const kLengthLabels[] = {
        "share_pct_1_5", "share_pct_6_10", "share_pct_11_15",
        "share_pct_16_20", "share_pct_gt_20"};
    MetricsSection &lengths = reg.section("stream_lengths");
    for (std::size_t i = 0; i < 5; ++i) {
        lengths.add(kLengthLabels[i],
                    i < out.lengthSharesPercent.size()
                        ? out.lengthSharesPercent[i]
                        : 0.0);
    }

    reg.section("victim")
        .add("hits", r.victimHits)
        .add("hit_rate_pct", r.victimHitRatePercent);

    reg.section("l2")
        .add("hits", r.l2Hits)
        .add("misses", r.l2Misses)
        .add("local_hit_rate_pct", r.l2LocalHitRatePercent);

    const L2AnalyticReport &la = out.l2Analytic;
    reg.section("l2_analytic")
        .add("model", la.model)
        .add("predicted_miss_ratio_pct", la.predictedMissRatioPct)
        .add("predicted_hit_rate_pct", la.predictedHitRatePct)
        .add("simulated_miss_ratio_pct", la.simulatedMissRatioPct)
        .add("abs_error_pct", la.absErrorPct)
        .add("profiled_misses", la.profiledMisses)
        .add("unique_blocks", la.uniqueBlocks);

    reg.section("sw_prefetch")
        .add("total", r.swPrefetches)
        .add("issued", r.swPrefetchesIssued)
        .add("redundant", r.swPrefetchesRedundant);

    const CycleBreakdown &cb = r.cycleBreakdown;
    reg.section("cycles")
        .add("total", r.cycles)
        .add("avg_access_cycles", r.avgAccessCycles)
        .add("l1_hit", cb.l1Hit)
        .add("victim_hit", cb.victimHit)
        .add("stream_hit", cb.streamHit)
        .add("stream_stall", cb.streamStall)
        .add("demand_fetch", cb.demandFetch)
        .add("bus_queue", cb.busQueue)
        .add("sw_prefetch_issue", cb.swPrefetchIssue);

    const SamplingReport &sp = out.sampling;
    reg.section("sampling")
        .add("mode", sp.mode)
        .add("intervals_total", sp.intervalsTotal)
        .add("intervals_selected", sp.intervalsSelected)
        .add("interval_refs", sp.intervalRefs)
        .add("warmup_refs", sp.warmupRefs)
        .add("simulated_refs", sp.simulatedRefs)
        .add("estimated_refs", sp.estimatedRefs)
        .add("miss_rate_stderr_pct", sp.missRateStderrPct)
        .add("time_sampler_sampled", sp.timeSampler.sampled)
        .add("time_sampler_skipped", sp.timeSampler.skipped);

    return reg;
}

} // namespace sbsim
