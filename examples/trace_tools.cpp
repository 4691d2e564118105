/**
 * @file
 * Trace tooling: the methodology substrate of Section 4. Capture a
 * workload into a binary trace file, time-sample it exactly as the
 * paper did (10,000 references on, 90,000 off = 10%), and replay both
 * the full and the sampled trace into identical systems to see how
 * well sampled hit rates track full-trace hit rates.
 */

#include <cstdio>
#include <iostream>

#include "sim/experiment.hh"
#include "trace/file_trace.hh"
#include "trace/time_sampler.hh"
#include "util/table.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

int
main()
{
    const std::string path = "/tmp/streamsim_example.trace";
    const Benchmark &bench = findBenchmark("applu");

    // 1. Capture: workload -> binary trace file.
    {
        auto workload = bench.makeWorkload(ScaleLevel::DEFAULT);
        TruncatingSource limited(*workload, 1200000);
        TraceWriter writer(path);
        std::uint64_t n = writer.appendAll(limited);
        std::cout << "captured " << n << " references to " << path
                  << "\n";
    }

    // 2. Replay the full trace.
    MemorySystemConfig config = paperSystemConfig(10);
    TraceReader full(path);
    RunOutput full_run = runOnce(full, config);

    // 3. Replay a 10% time sample of the same trace.
    TraceReader again(path);
    TimeSampler sampled(again); // the paper's 10k on / 90k off windows
    RunOutput sampled_run = runOnce(sampled, config);

    TablePrinter table({"trace", "refs", "hit_rate_%", "EB_%"});
    table.addRow({"full", fmt(full_run.results.references),
                  fmt(full_run.engineStats.hitRatePercent(), 1),
                  fmt(full_run.engineStats.extraBandwidthPercent(), 1)});
    table.addRow(
        {"10% sample", fmt(sampled_run.results.references),
         fmt(sampled_run.engineStats.hitRatePercent(), 1),
         fmt(sampled_run.engineStats.extraBandwidthPercent(), 1)});
    table.print(std::cout);

    std::remove(path.c_str());
    return 0;
}
