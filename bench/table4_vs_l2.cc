/**
 * @file
 * Reproduces Table 4: stream buffers versus secondary caches as the
 * input scales. For each of appsp, appbt, applu, cgm and mgrid at two
 * input sizes, measure the stream hit rate (10 streams, 16-entry unit
 * filter backed by a 16-entry czone filter — the paper's full
 * configuration) and find the minimum secondary cache size (64 KB to
 * 4 MB, associativity 1-4, block 64/128 B, set-sampled) whose local
 * hit rate matches it. The paper's shape: stream hit rate typically
 * *improves* with input size while the matching L2 size grows with
 * the data set — except cgm, whose irregular large input favours the
 * cache.
 *
 * Both halves of the study are parallel: the ten stream runs go
 * through the SweepRunner, and the ten set-sampled L2 studies fan out
 * over the same worker budget via parallelFor.
 *
 * Both halves also share one front end per (benchmark, input) pair:
 * each pair's miss trace is recorded once and held resident in the
 * trace store. Its DEMAND records feed the candidate battery directly
 * (replayMissesInto), and with the trace cache on the stream half
 * replays it (the sweep's planner finds it under missTraceKey), so
 * each workload is generated and pushed through the L1 exactly once.
 * With SBSIM_TRACE_CACHE=0 only the stream half runs its own sources;
 * the table is the same either way.
 *
 * The one-pass analytic engine (AnalyticCacheStudy) also prices the
 * whole candidate grid from each miss trace, timed against both
 * simulated backends: the exact (unsampled) battery it reproduces,
 * and the 1/8 set-sampled battery the table uses. The closing report
 * gives both speedups and the worst hit-rate deviation against each,
 * over every (benchmark, input, candidate) point.
 */

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "sim/l2_study.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace sbsim;

namespace {

MemorySystemConfig
fullStreamConfig()
{
    return paperSystemConfig(10, AllocationPolicy::UNIT_FILTER,
                             StrideDetection::CZONE, 18);
}

struct PaperRow
{
    const char *small_input;
    const char *large_input;
    int small_hit, large_hit;
    const char *small_l2, *large_l2;
};

PaperRow
paperRow(const std::string &name)
{
    if (name == "appsp")
        return {"12^3", "24^3", 43, 65, "128 KB", "1 MB"};
    if (name == "appbt")
        return {"12^3", "24^3", 50, 52, "512 KB", "2 MB"};
    if (name == "applu")
        return {"12^3", "24^3", 62, 73, "1 MB", "2 MB"};
    if (name == "cgm")
        return {"1400", "5600", 85, 51, "1 MB", "64 KB"};
    return {"32^3", "64^3", 76, 88, "2 MB", "4 MB"}; // mgrid
}

} // namespace

int
main()
{
    std::cout << "Table 4: stream buffers versus secondary cache\n"
              << "(streams: 10 + 16-entry unit filter + 16-entry czone "
                 "filter; L2: 64KB-4MB, assoc 1-4, block 64/128B, "
                 "set-sampled 1/8)\n\n";

    const std::vector<const char *> names = {"appsp", "appbt", "applu",
                                             "cgm", "mgrid"};
    const std::vector<ScaleLevel> levels = {ScaleLevel::SMALL,
                                            ScaleLevel::LARGE};

    // (name, level) pairs in row order.
    std::vector<SweepJob> stream_jobs;
    for (const char *name : names) {
        for (ScaleLevel level : levels) {
            stream_jobs.push_back(
                bench::job(name, level, fullStreamConfig()));
        }
    }

    SweepRunner runner;
    double wall = 0;
    double l2_sim_wall = 0;
    double l2_exact_wall = 0;
    double l2_ana_wall = 0;
    std::vector<std::shared_ptr<const MissTrace>> misses(
        stream_jobs.size());
    std::vector<SweepResult> stream_results;
    std::vector<std::vector<L2Result>> l2_results(stream_jobs.size());
    std::vector<std::vector<L2Result>> exact_results(stream_jobs.size());
    std::vector<std::vector<L2Result>> ana_results(stream_jobs.size());
    // One simulated battery over every recording's DEMAND records.
    auto battery = [&](double &seconds, unsigned sample_log2,
                       std::vector<std::vector<L2Result>> &results) {
        ScopedTimer l2_timer(seconds);
        parallelFor(stream_jobs.size(), runner.jobs(), [&](std::size_t i) {
            SecondaryCacheStudy study(table4CandidateConfigs(),
                                      sample_log2);
            replayMissesInto(study, *misses[i]);
            results[i] = study.results();
        });
    };
    {
        ScopedTimer timer(wall);
        // One recording per (benchmark, input), held here: the stream
        // half replays it below when the trace cache is on (a resident
        // miss trace serves even a one-job family) and every L2 backend
        // consumes its DEMAND records, so both halves see exactly the
        // same reference stream.
        parallelFor(stream_jobs.size(), runner.jobs(), [&](std::size_t i) {
            const SweepJob &job = stream_jobs[i];
            misses[i] = TraceCache::instance().getOrRecord(
                missTraceKey(job.sourceKey, job.config), [&job] {
                    auto src = job.makeSource();
                    return recordMissTrace(*src, job.config);
                });
        });
        stream_results = runner.run(stream_jobs);
        battery(l2_sim_wall, /*sample_log2=*/3, l2_results);
        // Exact baseline: the unsampled battery the analytic engine
        // reproduces (the differential tests' reference).
        battery(l2_exact_wall, /*sample_log2=*/0, exact_results);
        // Analytic half: same traces, same grid, one profiling pass
        // each instead of 42 simulated caches.
        ScopedTimer l2_timer(l2_ana_wall);
        parallelFor(stream_jobs.size(), runner.jobs(), [&](std::size_t i) {
            AnalyticCacheStudy study(table4CandidateConfigs());
            profileMissesInto(study, *misses[i]);
            ana_results[i] = study.results();
        });
    }

    TablePrinter table({"name", "input", "stream_hit_%", "min_L2",
                        "paper_hit_%", "paper_L2"});

    for (std::size_t ni = 0; ni < names.size(); ++ni) {
        PaperRow ref = paperRow(names[ni]);
        for (std::size_t li = 0; li < levels.size(); ++li) {
            bool small = levels[li] == ScaleLevel::SMALL;
            std::size_t idx = ni * levels.size() + li;
            double hit = stream_results[idx]
                             .output.engineStats.hitRatePercent();
            auto min_size = minSizeReaching(l2_results[idx], hit);
            table.addRow(
                {names[ni], small ? ref.small_input : ref.large_input,
                 fmt(hit, 1),
                 min_size ? fmtBytes(*min_size) : std::string(">4 MB"),
                 fmt(double(small ? ref.small_hit : ref.large_hit), 0),
                 small ? ref.small_l2 : ref.large_l2});
        }
    }
    table.print(std::cout);

    {
        double worst_exact = 0;
        double worst_sampled = 0;
        for (std::size_t i = 0; i < l2_results.size(); ++i) {
            for (std::size_t j = 0; j < l2_results[i].size(); ++j) {
                double ana = ana_results[i][j].localHitRatePercent;
                worst_exact = std::max(
                    worst_exact,
                    std::abs(exact_results[i][j].localHitRatePercent -
                             ana));
                worst_sampled = std::max(
                    worst_sampled,
                    std::abs(l2_results[i][j].localHitRatePercent - ana));
            }
        }
        std::cout << "\nanalytic L2 engine: grid priced in "
                  << fmt(l2_ana_wall, 3) << " s\n  vs exact battery    "
                  << fmt(l2_exact_wall, 3) << " s ("
                  << fmt(l2_ana_wall > 0 ? l2_exact_wall / l2_ana_wall : 0,
                         1)
                  << "x), worst deviation " << fmt(worst_exact, 4)
                  << " points\n  vs sampled battery  "
                  << fmt(l2_sim_wall, 3) << " s ("
                  << fmt(l2_ana_wall > 0 ? l2_sim_wall / l2_ana_wall : 0, 1)
                  << "x), worst deviation " << fmt(worst_sampled, 2)
                  << " points (set-sampling noise)\n";
    }

    bench::ThroughputLog log;
    log.record(stream_results);
    log.print(std::cout, wall, runner.jobs());
    return 0;
}
