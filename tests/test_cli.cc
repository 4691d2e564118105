/** @file Unit tests for the streamsim CLI parser and commands. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "cli_commands.hh"
#include "cli_options.hh"

using namespace sbsim;
using namespace sbsim::cli;

namespace {

ParseResult
parse(std::initializer_list<const char *> args)
{
    return parseArgs(std::vector<std::string>(args.begin(), args.end()));
}

} // namespace

TEST(CliParse, HelpVariants)
{
    for (auto *cmd : {"help", "--help", "-h"}) {
        ParseResult r = parse({cmd});
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.options.command, Command::HELP);
    }
}

TEST(CliParse, EmptyAndUnknownCommandsFail)
{
    EXPECT_FALSE(parseArgs({}).ok());
    EXPECT_FALSE(parse({"frobnicate"}).ok());
}

TEST(CliParse, RunWithBenchmark)
{
    ParseResult r = parse({"run", "-b", "mgrid", "--refs", "1000",
                           "--streams", "8", "--depth", "4",
                           "--filter", "--czone", "18"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.options.command, Command::RUN);
    EXPECT_EQ(r.options.benchmark, "mgrid");
    EXPECT_EQ(r.options.refs, 1000u);
    EXPECT_EQ(r.options.streams, 8u);
    EXPECT_EQ(r.options.depth, 4u);
    EXPECT_TRUE(r.options.unitFilter);
    ASSERT_TRUE(r.options.czoneBits.has_value());
    EXPECT_EQ(*r.options.czoneBits, 18u);
}

TEST(CliParse, ScaleLevels)
{
    ParseResult r = parse({"run", "-b", "cgm", "--scale", "large"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.options.scale, ScaleLevel::LARGE);
    EXPECT_FALSE(parse({"run", "-b", "cgm", "--scale", "huge"}).ok());
}

TEST(CliParse, ValidationRules)
{
    // Stride detection needs the filter.
    EXPECT_FALSE(parse({"run", "-b", "cgm", "--czone", "18"}).ok());
    EXPECT_FALSE(parse({"run", "-b", "cgm", "--min-delta"}).ok());
    // czone and min-delta are exclusive.
    EXPECT_FALSE(parse({"run", "-b", "cgm", "--filter", "--czone",
                        "18", "--min-delta"})
                     .ok());
    // Need an input.
    EXPECT_FALSE(parse({"run"}).ok());
    // Benchmark and trace are exclusive.
    EXPECT_FALSE(
        parse({"run", "-b", "cgm", "--trace", "x.trace"}).ok());
    // Unknown benchmark.
    EXPECT_FALSE(parse({"run", "-b", "nope"}).ok());
    // Capture needs an output file.
    EXPECT_FALSE(parse({"capture", "-b", "cgm"}).ok());
    // Missing values.
    EXPECT_FALSE(parse({"run", "-b"}).ok());
    EXPECT_FALSE(parse({"run", "-b", "cgm", "--refs", "abc"}).ok());
    EXPECT_FALSE(parse({"run", "-b", "cgm", "--refs", "0"}).ok());
}

TEST(CliParse, SweepValues)
{
    ParseResult r =
        parse({"sweep", "-b", "is", "--values", "1,3,9"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.options.sweepValues,
              (std::vector<std::uint32_t>{1, 3, 9}));
    EXPECT_FALSE(parse({"sweep", "-b", "is", "--values", "1,,3"}).ok());
    EXPECT_FALSE(parse({"sweep", "-b", "is", "--values", "a"}).ok());
}

TEST(CliParse, StreamEngineSizesAreBounded)
{
    // The CLI enforces validateSpec's bounds, so an oversized engine
    // is rejected before anything is built.
    EXPECT_TRUE(parse({"run", "-b", "is", "--streams", "64"}).ok());
    EXPECT_TRUE(parse({"run", "-b", "is", "--depth", "16"}).ok());
    EXPECT_TRUE(parse({"run", "-b", "is", "--victim", "256"}).ok());
    EXPECT_TRUE(parse({"sweep", "-b", "is", "--values", "1,64"}).ok());

    ParseResult r = parse({"run", "-b", "is", "--streams", "65"});
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("streams"), std::string::npos) << r.error;
    r = parse({"run", "-b", "is", "--depth", "100000000"});
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("depth"), std::string::npos) << r.error;
    r = parse({"run", "-b", "is", "--victim", "257"});
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("victim"), std::string::npos) << r.error;
    r = parse({"sweep", "-b", "is", "--values", "1,2,4000000000"});
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("values"), std::string::npos) << r.error;
    EXPECT_FALSE(parse({"sweep", "-b", "is", "--values", "65"}).ok());
    // The sweep's own --streams is bounded too, even though the grid
    // overrides it.
    EXPECT_FALSE(
        parse({"sweep", "-b", "is", "--streams", "65", "--values", "1"})
            .ok());
}

TEST(CliParse, TraceCacheToggle)
{
    // Unset: defer to SBSIM_TRACE_CACHE (nullopt).
    ParseResult r = parse({"sweep", "-b", "is", "--values", "1,2"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_FALSE(r.options.traceCache.has_value());

    for (auto *on : {"on", "1", "true", "yes"}) {
        r = parse({"sweep", "-b", "is", "--values", "1,2",
                   "--trace-cache", on});
        ASSERT_TRUE(r.ok()) << on << ": " << r.error;
        ASSERT_TRUE(r.options.traceCache.has_value()) << on;
        EXPECT_TRUE(*r.options.traceCache) << on;
    }
    for (auto *off : {"off", "0", "false", "no"}) {
        r = parse({"sweep", "-b", "is", "--values", "1,2",
                   "--trace-cache", off});
        ASSERT_TRUE(r.ok()) << off << ": " << r.error;
        ASSERT_TRUE(r.options.traceCache.has_value()) << off;
        EXPECT_FALSE(*r.options.traceCache) << off;
    }

    EXPECT_FALSE(parse({"sweep", "-b", "is", "--values", "1,2",
                        "--trace-cache", "maybe"})
                     .ok());
    EXPECT_FALSE(parse({"sweep", "-b", "is", "--values", "1,2",
                        "--trace-cache"})
                     .ok());
}

TEST(CliParse, ToSystemConfig)
{
    ParseResult r = parse({"run", "-b", "trfd", "--streams", "6",
                           "--depth", "3", "--filter", "--czone", "20",
                           "--victim", "4", "--partitioned"});
    ASSERT_TRUE(r.ok()) << r.error;
    MemorySystemConfig config = toSystemConfig(r.options);
    EXPECT_EQ(config.streams.numStreams, 6u);
    EXPECT_EQ(config.streams.depth, 3u);
    EXPECT_EQ(config.streams.allocation, AllocationPolicy::UNIT_FILTER);
    EXPECT_EQ(config.streams.strideDetection, StrideDetection::CZONE);
    EXPECT_EQ(config.streams.czoneBits, 20u);
    EXPECT_TRUE(config.streams.partitioned);
    EXPECT_EQ(config.victimBufferEntries, 4u);
    EXPECT_TRUE(config.useStreams);
}

TEST(CliParse, NoStreams)
{
    ParseResult r = parse({"run", "-b", "adm", "--no-streams"});
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(toSystemConfig(r.options).useStreams);
}

TEST(CliParse, PageTranslation)
{
    ParseResult r = parse({"run", "-b", "fftpde", "--shuffled-pages",
                           "--page-bits", "16"});
    ASSERT_TRUE(r.ok()) << r.error;
    MemorySystemConfig config = toSystemConfig(r.options);
    EXPECT_EQ(config.translation, TranslationMode::SHUFFLED);
    EXPECT_EQ(config.pageBits, 16u);
    EXPECT_FALSE(
        parse({"run", "-b", "fftpde", "--page-bits", "3"}).ok());
}

TEST(CliCommands, ListShowsAllBenchmarks)
{
    std::ostringstream out;
    Options o;
    o.command = Command::LIST;
    EXPECT_EQ(runCommand(o, out), 0);
    for (const Benchmark &b : allBenchmarks())
        EXPECT_NE(out.str().find(b.name), std::string::npos) << b.name;
}

TEST(CliCommands, RunProducesMetrics)
{
    ParseResult r = parse({"run", "-b", "embar", "--refs", "50000"});
    ASSERT_TRUE(r.ok());
    std::ostringstream out;
    EXPECT_EQ(runCommand(r.options, out), 0);
    EXPECT_NE(out.str().find("stream_hit_rate_%"), std::string::npos);
    EXPECT_NE(out.str().find("references"), std::string::npos);
}

TEST(CliCommands, RunWithFullStats)
{
    ParseResult r =
        parse({"run", "-b", "embar", "--refs", "20000", "--stats"});
    ASSERT_TRUE(r.ok());
    std::ostringstream out;
    EXPECT_EQ(runCommand(r.options, out), 0);
    EXPECT_NE(out.str().find("l1.dcache.accesses"), std::string::npos);
    EXPECT_NE(out.str().find("streams.hit_rate_pct"),
              std::string::npos);
    EXPECT_NE(out.str().find("memory.demand_blocks"),
              std::string::npos);
}

TEST(CliCommands, CaptureThenReplayRoundTrips)
{
    std::string path =
        (std::filesystem::temp_directory_path() / "cli_capture.trace")
            .string();
    ParseResult cap = parse({"capture", "-b", "is", "--refs", "30000",
                             "-o", path.c_str()});
    ASSERT_TRUE(cap.ok()) << cap.error;
    std::ostringstream out1;
    EXPECT_EQ(runCommand(cap.options, out1), 0);
    EXPECT_NE(out1.str().find("30000"), std::string::npos);

    ParseResult replay =
        parse({"run", "--trace", path.c_str(), "--refs", "30000"});
    ASSERT_TRUE(replay.ok()) << replay.error;
    std::ostringstream out2;
    EXPECT_EQ(runCommand(replay.options, out2), 0);
    EXPECT_NE(out2.str().find("stream_hit_rate_%"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliCommands, SweepEmitsOneRowPerValue)
{
    ParseResult r = parse({"sweep", "-b", "is", "--refs", "30000",
                           "--values", "1,2,4"});
    ASSERT_TRUE(r.ok());
    std::ostringstream out;
    EXPECT_EQ(runCommand(r.options, out), 0);
    // Header + separator + 3 rows.
    int lines = 0;
    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, 5);
}

TEST(CliCommands, HelpPrintsUsage)
{
    std::ostringstream out;
    Options o;
    o.command = Command::HELP;
    EXPECT_EQ(runCommand(o, out), 0);
    EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(CliCommands, CsvSweepIsMachineReadable)
{
    ParseResult r = parse({"sweep", "-b", "is", "--refs", "20000",
                           "--values", "1,2", "--csv"});
    ASSERT_TRUE(r.ok()) << r.error;
    std::ostringstream out;
    EXPECT_EQ(runCommand(r.options, out), 0);
    EXPECT_EQ(out.str().rfind("streams,hit_rate_%,EB_%", 0), 0u);
    EXPECT_EQ(out.str().find("---"), std::string::npos);
}

TEST(CliCommands, AnalyzeReportsReferenceMix)
{
    ParseResult r = parse({"analyze", "-b", "mgrid", "--refs", "40000"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.options.command, Command::ANALYZE);
    std::ostringstream out;
    EXPECT_EQ(runCommand(r.options, out), 0);
    EXPECT_NE(out.str().find("references"), std::string::npos);
    EXPECT_NE(out.str().find("data_footprint"), std::string::npos);
    EXPECT_NE(out.str().find("40000"), std::string::npos);
}
