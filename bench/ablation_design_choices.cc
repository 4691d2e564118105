/**
 * @file
 * Ablations for the design choices DESIGN.md calls out, beyond what
 * the paper tabulates:
 *
 *  1. stream depth (paper fixes 2): coverage vs wasted bandwidth;
 *  2. unit-filter size (paper: 8-10 entries suffice, 16 used);
 *  3. unified vs partitioned I/D streams (paper: partitioning was not
 *     beneficial because instruction misses are rare);
 *  4. czone vs minimum-delta non-unit-stride detection (paper: similar
 *     performance, min-delta needs more hardware);
 *  5. the Section 8 timing caveat: how many "stream hits" would stall
 *     on in-flight prefetches under a flat 50-cycle memory.
 *
 * Every ablation builds a (benchmark x configuration) job grid and
 * fans it out through the shared SweepRunner; results come back in
 * submission order, so the tables read exactly as the old serial
 * loops produced them.
 */

#include <iostream>

#include "bench_common.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace sbsim;

namespace {

const std::vector<std::string> kSubjects = {"mgrid", "fftpde", "appbt",
                                            "trfd"};

SweepRunner &
runner()
{
    static SweepRunner r;
    return r;
}

bench::ThroughputLog &
throughput()
{
    static bench::ThroughputLog log;
    return log;
}

/** Run one ablation's grid, feeding the binary-wide footer totals. */
std::vector<SweepResult>
runGrid(const std::vector<SweepJob> &jobs)
{
    std::vector<SweepResult> results = runner().run(jobs);
    throughput().record(results);
    return results;
}

void
depthSweep()
{
    std::cout << "Ablation 1: stream depth (10 streams, no filter)\n\n";
    const std::vector<std::uint32_t> depths = {1, 2, 4, 8};
    std::vector<SweepJob> jobs;
    for (const auto &name : kSubjects) {
        for (std::uint32_t depth : depths) {
            MemorySystemConfig config = paperSystemConfig(10);
            config.streams.depth = depth;
            jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, config));
        }
    }
    std::vector<SweepResult> results = runGrid(jobs);

    TablePrinter table(
        {"name", "d1_hit", "d1_EB", "d2_hit", "d2_EB", "d4_hit",
         "d4_EB", "d8_hit", "d8_EB"});
    for (std::size_t ni = 0; ni < kSubjects.size(); ++ni) {
        std::vector<std::string> row = {kSubjects[ni]};
        for (std::size_t di = 0; di < depths.size(); ++di) {
            const RunOutput &out =
                results[ni * depths.size() + di].output;
            row.push_back(fmt(out.engineStats.hitRatePercent(), 1));
            row.push_back(
                fmt(out.engineStats.extraBandwidthPercent(), 1));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << '\n';
}

void
filterSizeSweep()
{
    std::cout << "Ablation 2: unit-stride filter size (10 streams)\n\n";
    const std::vector<std::uint32_t> sizes = {2, 4, 8, 16, 32};
    std::vector<std::string> headers = {"name"};
    for (std::uint32_t entries : sizes)
        headers.push_back("f" + std::to_string(entries));

    std::vector<SweepJob> jobs;
    for (const auto &name : kSubjects) {
        for (std::uint32_t entries : sizes) {
            MemorySystemConfig config =
                paperSystemConfig(10, AllocationPolicy::UNIT_FILTER);
            config.streams.unitFilterEntries = entries;
            jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, config));
        }
    }
    std::vector<SweepResult> results = runGrid(jobs);

    TablePrinter table(headers);
    for (std::size_t ni = 0; ni < kSubjects.size(); ++ni) {
        std::vector<std::string> row = {kSubjects[ni]};
        for (std::size_t si = 0; si < sizes.size(); ++si) {
            const RunOutput &out = results[ni * sizes.size() + si].output;
            row.push_back(fmt(out.engineStats.hitRatePercent(), 1));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n(Paper: 8-10 entries suffice.)\n\n";
}

void
partitionedStreams()
{
    std::cout << "Ablation 3: unified vs partitioned I/D streams "
                 "(10 streams)\n\n";
    std::vector<SweepJob> jobs;
    for (const auto &name : kSubjects) {
        MemorySystemConfig unified = paperSystemConfig(10);
        MemorySystemConfig split = paperSystemConfig(10);
        split.streams.partitioned = true;
        jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, unified));
        jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, split));
    }
    std::vector<SweepResult> results = runGrid(jobs);

    TablePrinter table({"name", "unified_hit", "partitioned_hit"});
    for (std::size_t ni = 0; ni < kSubjects.size(); ++ni) {
        const RunOutput &u = results[ni * 2 + 0].output;
        const RunOutput &p = results[ni * 2 + 1].output;
        table.addRow({kSubjects[ni],
                      fmt(u.engineStats.hitRatePercent(), 1),
                      fmt(p.engineStats.hitRatePercent(), 1)});
    }
    table.print(std::cout);
    std::cout << "\n(Paper: partitioning was not beneficial — few "
                 "instruction misses.)\n\n";
}

void
czoneVsMinDelta()
{
    std::cout << "Ablation 4: czone vs minimum-delta stride detection\n\n";
    const std::vector<const char *> names = {"appsp", "fftpde", "trfd"};
    std::vector<SweepJob> jobs;
    for (const char *name : names) {
        jobs.push_back(bench::job(
            name, ScaleLevel::DEFAULT,
            paperSystemConfig(10, AllocationPolicy::UNIT_FILTER)));
        jobs.push_back(bench::job(
            name, ScaleLevel::DEFAULT,
            paperSystemConfig(10, AllocationPolicy::UNIT_FILTER,
                              StrideDetection::CZONE, 18)));
        jobs.push_back(bench::job(
            name, ScaleLevel::DEFAULT,
            paperSystemConfig(10, AllocationPolicy::UNIT_FILTER,
                              StrideDetection::MIN_DELTA)));
    }
    std::vector<SweepResult> results = runGrid(jobs);

    TablePrinter table({"name", "unit_only", "czone", "min_delta"});
    for (std::size_t ni = 0; ni < names.size(); ++ni) {
        table.addRow(
            {names[ni],
             fmt(results[ni * 3 + 0]
                     .output.engineStats.hitRatePercent(), 1),
             fmt(results[ni * 3 + 1]
                     .output.engineStats.hitRatePercent(), 1),
             fmt(results[ni * 3 + 2]
                     .output.engineStats.hitRatePercent(), 1)});
    }
    table.print(std::cout);
    std::cout << "\n(Paper: the two schemes performed similarly.)\n\n";
}

void
streamReplacementPolicy()
{
    std::cout << "Ablation 6: stream reallocation policy "
                 "(10 streams, no filter)\n\n";
    const std::vector<StreamReplacement> policies = {
        StreamReplacement::LRU, StreamReplacement::FIFO,
        StreamReplacement::RANDOM};
    std::vector<SweepJob> jobs;
    for (const auto &name : kSubjects) {
        for (StreamReplacement repl : policies) {
            MemorySystemConfig config = paperSystemConfig(10);
            config.streams.replacement = repl;
            jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, config));
        }
    }
    std::vector<SweepResult> results = runGrid(jobs);

    TablePrinter table({"name", "lru_hit", "fifo_hit", "random_hit"});
    for (std::size_t ni = 0; ni < kSubjects.size(); ++ni) {
        std::vector<std::string> row = {kSubjects[ni]};
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
            const RunOutput &out =
                results[ni * policies.size() + pi].output;
            row.push_back(fmt(out.engineStats.hitRatePercent(), 1));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n(The paper assumes LRU; FIFO/random mostly match "
                 "because allocation churn dominates.)\n\n";
}

void
victimBufferWithDirectMappedL1()
{
    std::cout << "Ablation 7: direct-mapped L1 with and without a "
                 "victim buffer (Section 4.1)\n\n";
    std::vector<SweepJob> jobs;
    for (const auto &name : kSubjects) {
        MemorySystemConfig four_way = paperSystemConfig(10);
        MemorySystemConfig dm = four_way;
        dm.l1.icache.assoc = 1;
        dm.l1.dcache.assoc = 1;
        MemorySystemConfig dm_vb = dm;
        dm_vb.victimBufferEntries = 8;
        jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, four_way));
        jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, dm));
        jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, dm_vb));
    }
    std::vector<SweepResult> results = runGrid(jobs);

    TablePrinter table({"name", "4way_hit", "dm_hit", "dm+vb_hit",
                        "vb_local_hit_%"});
    for (std::size_t ni = 0; ni < kSubjects.size(); ++ni) {
        const RunOutput &a = results[ni * 3 + 0].output;
        const RunOutput &b = results[ni * 3 + 1].output;
        const RunOutput &c = results[ni * 3 + 2].output;
        table.addRow({kSubjects[ni],
                      fmt(a.engineStats.hitRatePercent(), 1),
                      fmt(b.engineStats.hitRatePercent(), 1),
                      fmt(c.engineStats.hitRatePercent(), 1),
                      fmt(c.results.victimHitRatePercent, 1)});
    }
    table.print(std::cout);
    std::cout << "\n(With a direct-mapped L1, conflict misses look "
                 "like isolated references to the streams; the victim "
                 "buffer absorbs them, as Jouppi proposed.)\n\n";
}

void
depthVersusLatency()
{
    std::cout << "Ablation 8: stream depth vs memory latency "
                 "(Section 3: depth must cover the latency)\n"
              << "(mgrid, 10 streams; cells are avg access cycles / "
                 "pending-hit %)\n\n";
    const std::vector<unsigned> latencies = {20, 50, 200};
    const std::vector<std::uint32_t> depths = {1, 2, 4, 8};
    std::vector<std::string> headers = {"latency"};
    for (std::uint32_t depth : depths)
        headers.push_back("d" + std::to_string(depth));

    std::vector<SweepJob> jobs;
    for (unsigned latency : latencies) {
        for (std::uint32_t depth : depths) {
            MemorySystemConfig config = paperSystemConfig(10);
            config.streams.depth = depth;
            config.memLatencyCycles = latency;
            jobs.push_back(
                bench::job("mgrid", ScaleLevel::DEFAULT, config));
        }
    }
    std::vector<SweepResult> results = runGrid(jobs);

    TablePrinter table(headers);
    for (std::size_t li = 0; li < latencies.size(); ++li) {
        std::vector<std::string> row = {std::to_string(latencies[li])};
        for (std::size_t di = 0; di < depths.size(); ++di) {
            const RunOutput &out =
                results[li * depths.size() + di].output;
            double pending = percent(
                out.results.streamHitsPending,
                out.results.streamHitsPending +
                    out.results.streamHitsReady);
            row.push_back(fmt(out.results.avgAccessCycles, 2) + "/" +
                          fmt(pending, 0));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n(Deeper streams run further ahead, so fewer hits "
                 "stall on in-flight prefetches as latency grows — at "
                 "the cost of the bandwidth shown in Ablation 1.)\n\n";
}

void
timingCaveat()
{
    std::cout << "Ablation 5: Section 8 caveat — stream hits whose "
                 "prefetch is still in flight (50-cycle memory)\n\n";
    std::vector<SweepJob> jobs;
    for (const auto &name : kSubjects)
        jobs.push_back(
            bench::job(name, ScaleLevel::DEFAULT, paperSystemConfig(10)));
    std::vector<SweepResult> results = runGrid(jobs);

    TablePrinter table({"name", "hits_ready", "hits_pending",
                        "pending_%", "avg_access_cycles"});
    for (std::size_t ni = 0; ni < kSubjects.size(); ++ni) {
        const RunOutput &out = results[ni].output;
        std::uint64_t ready = out.results.streamHitsReady;
        std::uint64_t pending = out.results.streamHitsPending;
        table.addRow({kSubjects[ni], fmt(ready), fmt(pending),
                      fmt(percent(pending, ready + pending), 1),
                      fmt(out.results.avgAccessCycles, 2)});
    }
    table.print(std::cout);
    std::cout << '\n';
}

void
pageTranslation()
{
    std::cout << "Ablation 9: virtual-to-physical page mapping "
                 "(czone detection runs on physical addresses)\n\n";
    const std::vector<const char *> names = {"appsp", "fftpde", "trfd",
                                             "mgrid"};
    const std::vector<unsigned> page_bits = {12, 16, 20};
    std::vector<SweepJob> jobs;
    for (const char *name : names) {
        MemorySystemConfig base = paperSystemConfig(
            10, AllocationPolicy::UNIT_FILTER, StrideDetection::CZONE,
            18);
        jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, base));
        for (unsigned bits : page_bits) {
            MemorySystemConfig config = base;
            config.translation = TranslationMode::SHUFFLED;
            config.pageBits = bits;
            jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, config));
        }
    }
    std::vector<SweepResult> results = runGrid(jobs);

    TablePrinter table({"name", "identity", "shuffled_4K",
                        "shuffled_64K", "shuffled_1M"});
    std::size_t per_name = 1 + page_bits.size();
    for (std::size_t ni = 0; ni < names.size(); ++ni) {
        std::vector<std::string> row = {names[ni]};
        for (std::size_t ci = 0; ci < per_name; ++ci) {
            const RunOutput &out = results[ni * per_name + ci].output;
            row.push_back(fmt(out.engineStats.hitRatePercent(), 1));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n(The paper implicitly assumes contiguous physical "
                 "pages. A scattered 4 KB page map fragments strides "
                 "larger than a page — fftpde's 16 KB stride dies — "
                 "while superpages restore the paper's behaviour. "
                 "Unit-stride benchmarks barely notice.)\n\n";
}

void
associativeLookup()
{
    std::cout << "Ablation 10: head-only vs quasi-sequential "
                 "(associative) stream lookup\n(10 streams, depth 4, "
                 "no filter; Jouppi's original design axis)\n\n";
    std::vector<SweepJob> jobs;
    for (const auto &name : kSubjects) {
        for (bool assoc : {false, true}) {
            MemorySystemConfig config = paperSystemConfig(10);
            config.streams.depth = 4;
            config.streams.associativeLookup = assoc;
            jobs.push_back(bench::job(name, ScaleLevel::DEFAULT, config));
        }
    }
    std::vector<SweepResult> results = runGrid(jobs);

    TablePrinter table({"name", "head_hit", "head_EB", "assoc_hit",
                        "assoc_EB"});
    for (std::size_t ni = 0; ni < kSubjects.size(); ++ni) {
        std::vector<std::string> row = {kSubjects[ni]};
        for (std::size_t ai = 0; ai < 2; ++ai) {
            const RunOutput &out = results[ni * 2 + ai].output;
            row.push_back(fmt(out.engineStats.hitRatePercent(), 1));
            row.push_back(
                fmt(out.engineStats.extraBandwidthPercent(), 1));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n(Associative comparison needs one comparator per "
                 "entry instead of per\nstream; the paper's head-only "
                 "choice loses little on these access patterns.)\n\n";
}

} // namespace

int
main()
{
    double wall = 0;
    {
        ScopedTimer timer(wall);
        depthSweep();
        filterSizeSweep();
        partitionedStreams();
        czoneVsMinDelta();
        timingCaveat();
        streamReplacementPolicy();
        victimBufferWithDirectMappedL1();
        depthVersusLatency();
        pageTranslation();
        associativeLookup();
    }
    throughput().print(std::cout, wall, runner().jobs());
    return 0;
}
