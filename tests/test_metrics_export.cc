/**
 * @file
 * Tests for the structured metrics exporter: JSON/CSV primitives,
 * registry ordering, the golden run/sweep envelopes (byte-exact), the
 * schema-stability guarantee (field set identical across
 * configurations) and the cycle-accounting breakdown invariant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "trace/time_sampler.hh"
#include "util/metrics.hh"
#include "workloads/benchmark.hh"
#include "workloads/pattern.hh"

using namespace sbsim;

namespace {

/** The per-run section bodies for an all-zero RunOutput. Shared by
 *  the run and sweep golden pins below. */
const char *const kZeroSections =
    "{\"run\":{\"references\":0,\"instruction_refs\":0,\"data_refs\":0},"
    "\"l1\":{\"misses\":0,\"data_misses\":0,\"writebacks\":0,"
    "\"miss_rate_pct\":0,\"data_miss_rate_pct\":0,"
    "\"misses_per_instruction_pct\":0},"
    "\"streams\":{\"lookups\":0,\"hits\":0,\"stream_misses\":0,"
    "\"allocations\":0,\"prefetches_issued\":0,\"useless_flushed\":0,"
    "\"useless_invalidated\":0,\"hit_rate_pct\":0,"
    "\"extra_bandwidth_pct\":0,\"hits_ready\":0,\"hits_pending\":0},"
    "\"stream_lengths\":{\"share_pct_1_5\":0,\"share_pct_6_10\":0,"
    "\"share_pct_11_15\":0,\"share_pct_16_20\":0,\"share_pct_gt_20\":0},"
    "\"victim\":{\"hits\":0,\"hit_rate_pct\":0},"
    "\"l2\":{\"hits\":0,\"misses\":0,\"local_hit_rate_pct\":0},"
    "\"l2_analytic\":{\"model\":\"simulated\","
    "\"predicted_miss_ratio_pct\":0,\"predicted_hit_rate_pct\":0,"
    "\"simulated_miss_ratio_pct\":0,\"abs_error_pct\":0,"
    "\"profiled_misses\":0,\"unique_blocks\":0},"
    "\"sw_prefetch\":{\"total\":0,\"issued\":0,\"redundant\":0},"
    "\"cycles\":{\"total\":0,\"avg_access_cycles\":0,\"l1_hit\":0,"
    "\"victim_hit\":0,\"stream_hit\":0,\"stream_stall\":0,"
    "\"demand_fetch\":0,\"bus_queue\":0,\"sw_prefetch_issue\":0},"
    "\"sampling\":{\"mode\":\"exact\",\"intervals_total\":0,"
    "\"intervals_selected\":0,\"interval_refs\":0,\"warmup_refs\":0,"
    "\"simulated_refs\":0,\"estimated_refs\":0,"
    "\"miss_rate_stderr_pct\":0,\"time_sampler_sampled\":0,"
    "\"time_sampler_skipped\":0}}";

RunOutput
smallRun(const MemorySystemConfig &config,
         const char *benchmark = "mgrid", std::uint64_t refs = 60000)
{
    auto workload = findBenchmark(benchmark).makeWorkload();
    TruncatingSource limited(*workload, refs);
    return runOnce(limited, config);
}

} // namespace

// --- Serialisation primitives --------------------------------------

TEST(JsonNumber, ShortestRoundTrip)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(1.0), "1");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(-2.25), "-2.25");
    EXPECT_EQ(jsonNumber(100.0), "100");
}

TEST(JsonNumber, RoundTripsArbitraryDoubles)
{
    for (double v : {1.0 / 3.0, 99.99999999999999, 3.14159265358979,
                     1e-300, 1.7976931348623157e308}) {
        std::string s = jsonNumber(v);
        EXPECT_EQ(std::stod(s), v) << s;
    }
}

TEST(JsonNumber, NonFiniteBecomesNull)
{
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(INFINITY), "null");
    EXPECT_EQ(jsonNumber(-INFINITY), "null");
}

TEST(JsonQuote, EscapesSpecials)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(jsonQuote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(jsonQuote("a\nb"), "\"a\\nb\"");
    EXPECT_EQ(jsonQuote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(CsvQuote, QuotesOnlyWhenNeeded)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote("3.5"), "3.5");
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("a\"b"), "\"a\"\"b\"");
    EXPECT_EQ(csvQuote("a\nb"), "\"a\nb\"");
}

// --- Registry behaviour --------------------------------------------

TEST(MetricsRegistry, PreservesInsertionOrder)
{
    MetricsRegistry reg;
    reg.section("zebra").add("z", std::uint64_t{1});
    reg.section("alpha").add("a", std::uint64_t{2}).add("b", 0.5);
    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_EQ(os.str(),
              "{\"schema\":\"streamsim-metrics\",\"schema_version\":1,"
              "\"kind\":\"run\",\"sections\":{\"zebra\":{\"z\":1},"
              "\"alpha\":{\"a\":2,\"b\":0.5}}}\n");
}

TEST(MetricsRegistry, FlattensInOrder)
{
    MetricsRegistry reg;
    reg.section("s1").add("f1", std::uint64_t{10}).add("f2", 2.5);
    reg.section("s2").add("f3", std::string("x,y"));
    EXPECT_EQ(reg.flatFieldNames(),
              (std::vector<std::string>{"s1.f1", "s1.f2", "s2.f3"}));
    EXPECT_EQ(reg.flatFieldValues(),
              (std::vector<std::string>{"10", "2.5", "x,y"}));
}

TEST(MetricsRegistry, ImportsDistributions)
{
    BucketedDistribution dist({5, 10});
    dist.sample(3, 4);
    dist.sample(12, 12);
    MetricsRegistry reg;
    reg.addDistribution("lengths", dist);
    const MetricsSection *s = reg.find("lengths");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->fields().size(), 7u); // total + 3 counts + 3 shares
    EXPECT_EQ(s->fields()[0].first, "total");
    EXPECT_EQ(s->fields()[0].second.uintValue(), 16u);
    EXPECT_EQ(s->fields()[1].first, "count_0-5");
    EXPECT_EQ(s->fields()[1].second.uintValue(), 4u);
    EXPECT_EQ(s->fields()[3].first, "count_>10");
    EXPECT_EQ(s->fields()[3].second.uintValue(), 12u);
    EXPECT_EQ(s->fields()[4].first, "share_pct_0-5");
}

TEST(MetricsRegistryDeath, DuplicateSectionAsserts)
{
    EXPECT_DEATH(
        {
            MetricsRegistry reg;
            reg.section("dup");
            reg.section("dup");
        },
        "duplicate metrics section");
}

// --- Golden envelopes ----------------------------------------------

TEST(RunMetrics, GoldenJsonForZeroRun)
{
    std::ostringstream os;
    runMetrics(RunOutput{}).writeJson(os);
    EXPECT_EQ(os.str(),
              std::string("{\"schema\":\"streamsim-metrics\","
                          "\"schema_version\":1,\"kind\":\"run\","
                          "\"sections\":") +
                  kZeroSections + "}\n");
}

TEST(SweepExport, GoldenJsonForZeroSweep)
{
    SweepResult r;
    r.label = "x";
    std::ostringstream os;
    writeSweepJson({r}, os);
    EXPECT_EQ(os.str(),
              std::string("{\"schema\":\"streamsim-metrics\","
                          "\"schema_version\":1,\"kind\":\"sweep\","
                          "\"jobs\":[{\"label\":\"x\",\"references\":0,"
                          "\"wall_seconds\":0,\"refs_per_second\":0,"
                          "\"sections\":") +
                  kZeroSections +
                  "}],\"aggregate\":{\"jobs\":1,\"references\":0,"
                  "\"wall_seconds\":0,\"refs_per_second\":0}}\n");
}

TEST(SweepExport, CsvHasHeaderRowsAndAggregate)
{
    SweepResult a;
    a.label = "a";
    a.references = 10;
    SweepResult b;
    b.label = "b";
    b.references = 20;
    std::ostringstream os;
    writeSweepCsv({a, b}, os);

    std::istringstream in(os.str());
    std::string header, row_a, row_b, aggregate, extra;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row_a));
    ASSERT_TRUE(std::getline(in, row_b));
    ASSERT_TRUE(std::getline(in, aggregate));
    EXPECT_FALSE(std::getline(in, extra));

    EXPECT_EQ(header.rfind("label,references,wall_seconds,"
                           "refs_per_second,run.references,",
                           0),
              0u)
        << header;
    EXPECT_EQ(row_a.rfind("a,10,0,0,", 0), 0u) << row_a;
    EXPECT_EQ(row_b.rfind("b,20,0,0,", 0), 0u) << row_b;
    EXPECT_EQ(aggregate.rfind("aggregate,30,0,0,", 0), 0u) << aggregate;

    // Every row carries the same number of cells as the header.
    auto cells = [](const std::string &line) {
        return std::count(line.begin(), line.end(), ',');
    };
    EXPECT_EQ(cells(header), cells(row_a));
    EXPECT_EQ(cells(header), cells(row_b));
    EXPECT_EQ(cells(header), cells(aggregate));
}

// --- Schema stability ----------------------------------------------

TEST(RunMetrics, FieldSetIdenticalAcrossConfigurations)
{
    // The whole point of zero-filled sections: a consumer can rely on
    // the same columns whether or not streams/L2/victim exist.
    std::vector<std::string> baseline =
        runMetrics(RunOutput{}).flatFieldNames();
    ASSERT_FALSE(baseline.empty());

    MemorySystemConfig no_streams = paperSystemConfig(4);
    no_streams.useStreams = false;

    MemorySystemConfig kitchen_sink = paperSystemConfig(
        4, AllocationPolicy::UNIT_FILTER, StrideDetection::CZONE, 18);
    kitchen_sink.useL2 = true;
    kitchen_sink.l2.sizeBytes = 256 * 1024;
    kitchen_sink.victimBufferEntries = 4;
    kitchen_sink.busCyclesPerBlock = 2;

    for (const MemorySystemConfig &config :
         {paperSystemConfig(4), no_streams, kitchen_sink}) {
        RunOutput out = smallRun(config);
        EXPECT_EQ(runMetrics(out).flatFieldNames(), baseline);
    }
}

TEST(RunMetrics, ValuesMatchResults)
{
    RunOutput out = smallRun(paperSystemConfig(8));
    MetricsRegistry reg = runMetrics(out);
    const MetricsSection *run = reg.find("run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->fields()[0].second.uintValue(),
              out.results.references);
    const MetricsSection *streams = reg.find("streams");
    ASSERT_NE(streams, nullptr);
    EXPECT_EQ(streams->fields()[1].second.uintValue(),
              out.engineStats.hits);
    const MetricsSection *cycles = reg.find("cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(cycles->fields()[0].second.uintValue(),
              out.results.cycles);
}

// --- Cycle accounting ----------------------------------------------

TEST(CycleBreakdown, ComponentsSumToTotalAcrossConfigs)
{
    MemorySystemConfig busy = paperSystemConfig(8);
    busy.busCyclesPerBlock = 3;
    busy.victimBufferEntries = 4;

    MemorySystemConfig l2 = paperSystemConfig(8);
    l2.useL2 = true;
    l2.l2.sizeBytes = 128 * 1024;

    MemorySystemConfig bare = paperSystemConfig(4);
    bare.useStreams = false;

    int config_index = 0;
    for (const MemorySystemConfig &config :
         {paperSystemConfig(8), busy, l2, bare}) {
        SCOPED_TRACE(config_index++);
        RunOutput out = smallRun(config);
        const CycleBreakdown &cb = out.results.cycleBreakdown;
        EXPECT_EQ(cb.total(), out.results.cycles);
        EXPECT_GT(cb.l1Hit, 0u);
        EXPECT_GT(cb.demandFetch, 0u);
        EXPECT_EQ(cb.busQueue, out.results.busQueueCycles);
    }
}

TEST(CycleBreakdown, SwPrefetchPathAccounted)
{
    WorkloadSpec spec;
    spec.name = "swtest";
    spec.timeSteps = 1;
    spec.hotPerAccess = 0;
    spec.ifetchPerAccess = 0;
    spec.swPrefetchDistance = 4;
    SweepOp op;
    op.streams = {{0x100000, 32, AccessType::LOAD, 8}};
    op.count = 256;
    spec.ops.push_back(op);

    ComposedWorkload workload(spec);
    RunOutput out = runOnce(workload, paperSystemConfig(4));
    const CycleBreakdown &cb = out.results.cycleBreakdown;
    EXPECT_EQ(cb.total(), out.results.cycles);
    EXPECT_GT(cb.swPrefetchIssue, 0u);
}
