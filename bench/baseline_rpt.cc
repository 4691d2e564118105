/**
 * @file
 * Stream buffers versus the Baer-Chen reference prediction table (the
 * paper's Section 2 contrast). Both prefetchers are measured in the
 * same metric on the same traces: the fraction of primary-cache misses
 * their buffers cover, plus wasted prefetches per miss.
 *
 * The point the paper makes is architectural, not raw performance:
 * the RPT needs the load/store PC, which "requires that commodity
 * processors be modified", while stream buffers (with the czone
 * detector for strides) work entirely off-chip. This benchmark shows
 * what each scheme gets from the same reference stream.
 */

#include <iostream>

#include "baseline/rpt_system.hh"
#include "bench_common.hh"
#include "trace/time_sampler.hh"
#include "util/table.hh"

using namespace sbsim;

namespace {

struct RptResult
{
    double coverage;
    double eb;
};

RptResult
runRpt(const std::string &name)
{
    // The input the stream column's runBenchmark reads.
    auto input = makeInputChain(
        findBenchmark(name).makeWorkload(ScaleLevel::DEFAULT),
        bench::useTimeSampling(), bench::refLimit());
    RptSystem sys(SplitCacheConfig::paperDefault(), RptConfig{});
    sys.run(*input);
    return {sys.rpt().coveragePercent(),
            sys.rpt().extraBandwidthPercent()};
}

} // namespace

int
main()
{
    std::cout
        << "Baseline: Baer-Chen RPT (on-chip, PC-indexed, 64 entries, "
           "16-block buffer)\nvs stream buffers (off-chip, 10 streams "
           "+ 16/16 filters, czone 18)\n\n";

    TablePrinter table({"name", "rpt_cover_%", "rpt_EB_%",
                        "stream_hit_%", "stream_EB_%"});

    MemorySystemConfig streams = paperSystemConfig(
        10, AllocationPolicy::UNIT_FILTER, StrideDetection::CZONE, 18);

    for (const Benchmark &b : allBenchmarks()) {
        RptResult rpt = runRpt(b.name);
        RunOutput s =
            bench::runBenchmark(b.name, ScaleLevel::DEFAULT, streams);
        table.addRow({b.name, fmt(rpt.coverage, 1), fmt(rpt.eb, 1),
                      fmt(s.engineStats.hitRatePercent(), 1),
                      fmt(s.engineStats.extraBandwidthPercent(), 1)});
    }
    table.print(std::cout);

    std::cout
        << "\nBoth cover unit-stride and constant-stride misses; "
           "neither covers indirection.\nThe difference is where they "
           "live: the RPT needs the PC (on-chip, modified\nprocessor), "
           "streams need only miss addresses (off-chip, commodity "
           "processor).\n";
    return 0;
}
