/** @file Unit tests for the streamsim CLI parser and commands. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "cli_commands.hh"
#include "cli_options.hh"
#include "service/protocol.hh"

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
    EXPECT_EQ(r.options.spec.benchmark, "mgrid");
    EXPECT_EQ(r.options.spec.refs, 1000u);
    EXPECT_EQ(r.options.spec.streams, 8u);
    EXPECT_EQ(r.options.spec.depth, 4u);
    EXPECT_TRUE(r.options.spec.unitFilter);
    ASSERT_TRUE(r.options.spec.czoneBits.has_value());
    EXPECT_EQ(*r.options.spec.czoneBits, 18u);
}

TEST(CliParse, ScaleLevels)
{
    ParseResult r = parse({"run", "-b", "cgm", "--scale", "large"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.options.spec.scale, ScaleLevel::LARGE);
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

TEST(CliParse, FlagsOutsideTheirCommandsAreRejected)
{
    // Run, capture and analyze used to accept these and ignore them.
    const std::map<std::string, std::vector<std::string>> commands = {
        {"run", {"run", "-b", "mgrid"}},
        {"capture", {"capture", "-b", "mgrid", "-o", "x.trace"}},
        {"analyze", {"analyze", "-b", "mgrid"}},
        {"sweep", {"sweep", "-b", "mgrid"}},
    };
    const std::vector<std::vector<std::string>> sweep_only = {
        {"--values", "1,2"}, {"--jobs", "3"},        {"-j", "3"},
        {"--progress"},      {"--trace-cache", "off"},
    };
    for (const auto &[cmd, base] : commands) {
        for (const std::vector<std::string> &flag : sweep_only) {
            std::vector<std::string> args = base;
            args.insert(args.end(), flag.begin(), flag.end());
            ParseResult r = parseArgs(args);
            if (cmd == "sweep") {
                EXPECT_TRUE(r.ok()) << flag[0] << ": " << r.error;
                continue;
            }
            ASSERT_FALSE(r.ok()) << cmd << ' ' << flag[0];
            EXPECT_EQ(r.error, flag[0] + " applies to sweep only");
        }
        std::vector<std::string> args = base;
        args.push_back("--stats");
        ParseResult r = parseArgs(args);
        if (cmd == "run" || cmd == "sweep") {
            EXPECT_TRUE(r.ok()) << cmd << ": " << r.error;
        } else {
            ASSERT_FALSE(r.ok()) << cmd;
            EXPECT_EQ(r.error, "--stats applies to run and sweep only");
        }
    }
    EXPECT_FALSE(parse({"list", "--values", "1,2"}).ok());
    EXPECT_FALSE(parse({"list", "--stats"}).ok());
    EXPECT_FALSE(parse({"run", "-b", "mgrid", "--values", "1,2", "--jobs",
                        "3", "--progress", "--trace-cache", "off"})
                     .ok());
}

TEST(CliParse, ToSystemConfig)
{
    ParseResult r = parse({"run", "-b", "trfd", "--streams", "6",
                           "--depth", "3", "--filter", "--czone", "20",
                           "--victim", "4", "--partitioned"});
    ASSERT_TRUE(r.ok()) << r.error;
    MemorySystemConfig config = service::specSystemConfig(r.options.spec);
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
    EXPECT_FALSE(service::specSystemConfig(r.options.spec).useStreams);
}

TEST(CliParse, PageTranslation)
{
    ParseResult r = parse({"run", "-b", "fftpde", "--shuffled-pages",
                           "--page-bits", "16"});
    ASSERT_TRUE(r.ok()) << r.error;
    MemorySystemConfig config = service::specSystemConfig(r.options.spec);
    EXPECT_EQ(config.translation, TranslationMode::SHUFFLED);
    EXPECT_EQ(config.pageBits, 16u);
    EXPECT_FALSE(
        parse({"run", "-b", "fftpde", "--page-bits", "3"}).ok());
}

// ---------------------------------------------------------------------
// One request grammar: each RunSpec field reads the same through its
// CLI flag and its JSON key (service::specFields()).

namespace {

/** A spec as (key, value) pairs; a switch's value is "true". */
using SpecPairs = std::vector<std::pair<std::string, std::string>>;

const service::SpecField &
fieldOf(const std::string &key)
{
    const service::SpecField *field = service::findSpecField(key);
    if (!field)
        throw std::invalid_argument("no spec field " + key);
    return *field;
}

/** The spec @p pairs give as streamsim run flags; nullopt if
 *  rejected. */
std::optional<service::RunSpec>
viaCli(const SpecPairs &pairs)
{
    std::vector<std::string> args = {"run"};
    for (const auto &[key, value] : pairs) {
        args.push_back(specFlag(fieldOf(key)));
        if (fieldOf(key).arg != service::SpecArg::SWITCH)
            args.push_back(value);
    }
    ParseResult r = parseArgs(args);
    if (!r.ok())
        return std::nullopt;
    return r.options.spec;
}

/** The spec @p pairs give as a run request's "spec"; nullopt if
 *  rejected. A word's value is quoted, any other value is written
 *  as the JSON token it is. */
std::optional<service::RunSpec>
viaJson(const SpecPairs &pairs)
{
    std::string members;
    for (const auto &[key, value] : pairs) {
        const bool word = fieldOf(key).arg == service::SpecArg::WORD;
        members += (members.empty() ? "\"" : ", \"") + key + "\": " +
                   (word ? '"' + value + '"' : value);
    }
    service::RequestParse r = service::parseRequest(
        R"({"op": "run", "spec": {)" + members + "}}");
    if (!r.ok())
        return std::nullopt;
    return r.request.spec;
}

/** A valid, non-default value of a field, and the fields it needs. */
struct ValidValue
{
    std::string value;
    SpecPairs needs;
};

const std::map<std::string, ValidValue> &
validValues()
{
    static const std::map<std::string, ValidValue> values = {
        {"benchmark", {"mgrid", {}}},
        {"trace", {"x.trace", {}}},
        {"scale", {"large", {}}},
        {"refs", {"1000", {}}},
        {"sample", {"true", {}}},
        {"streams", {"8", {}}},
        {"depth", {"4", {}}},
        {"filter", {"true", {}}},
        {"czone", {"18", {{"filter", "true"}}}},
        {"min_delta", {"true", {{"filter", "true"}}}},
        {"partitioned", {"true", {}}},
        {"victim", {"4", {}}},
        {"no_streams", {"true", {}}},
        {"shuffled_pages", {"true", {}}},
        {"page_bits", {"16", {}}},
        {"l2", {"256", {}}},
        {"l2_model", {"analytic", {{"l2", "256"}}}},
        {"fidelity", {"sampled", {}}},
        {"bus", {"4", {}}},
    };
    return values;
}

/** @p key = @p value in an otherwise valid spec. */
SpecPairs
specWith(const std::string &key, const std::string &value)
{
    SpecPairs pairs;
    if (key != "benchmark" && key != "trace")
        pairs.emplace_back("benchmark", "mgrid");
    const SpecPairs &needs = validValues().at(key).needs;
    pairs.insert(pairs.end(), needs.begin(), needs.end());
    pairs.emplace_back(key, value);
    return pairs;
}

} // namespace

TEST(SpecGrammar, EveryFieldReadsAlikeThroughFlagAndKey)
{
    for (const service::SpecField &field : service::specFields()) {
        const std::string key(field.key);
        ASSERT_TRUE(validValues().count(key)) << key << " has no value";
        const SpecPairs pairs = specWith(key, validValues().at(key).value);
        std::optional<service::RunSpec> cli = viaCli(pairs);
        std::optional<service::RunSpec> json = viaJson(pairs);
        ASSERT_TRUE(cli.has_value()) << key;
        ASSERT_TRUE(json.has_value()) << key;
        EXPECT_TRUE(*cli == *json) << key;
        // The value reached the spec.
        const SpecPairs without(pairs.begin(), pairs.end() - 1);
        EXPECT_TRUE(cli != viaCli(without)) << key;
    }
}

TEST(SpecGrammar, BothFrontEndsRejectTheSameValues)
{
    struct Bad
    {
        std::string cli;  ///< Empty: a bare flag has no value.
        std::string json; ///< As viaJson writes it.
    };
    for (const service::SpecField &field : service::specFields()) {
        const std::string key(field.key);
        std::vector<Bad> bad;
        switch (field.arg) {
          case service::SpecArg::NUMBER:
            bad = {{"-1", "-1"}, {" 3", "\" 3\""}, {"+5", "+5"}};
            if (key == "refs")
                bad.push_back({"18446744073709551616",
                               "18446744073709551616"});
            else
                bad.push_back({"4294967296", "4294967296"});
            break;
          case service::SpecArg::SWITCH:
            bad = {{"", "\"yes\""}, {"", "1"}, {"", "null"}};
            break;
          case service::SpecArg::WORD:
            if (key != "trace")
                bad = {{"turbo", "turbo"}};
            break;
        }
        for (const Bad &b : bad) {
            if (!b.cli.empty()) {
                EXPECT_FALSE(viaCli(specWith(key, b.cli)))
                    << key << " = '" << b.cli << "'";
            }
            EXPECT_FALSE(viaJson(specWith(key, b.json)))
                << key << ": " << b.json;
        }
    }
}

TEST(SpecGrammar, L2ZeroMeansNoL2OnBothFrontEnds)
{
    const SpecPairs pairs = {{"benchmark", "mgrid"}, {"l2", "0"}};
    std::optional<service::RunSpec> cli = viaCli(pairs);
    std::optional<service::RunSpec> json = viaJson(pairs);
    ASSERT_TRUE(cli.has_value());
    ASSERT_TRUE(json.has_value());
    EXPECT_TRUE(*cli == *json);
    EXPECT_FALSE(service::specSystemConfig(*cli).useL2);
}

TEST(SpecGrammar, UsageNamesEveryFieldFlag)
{
    const std::string text = usage();
    for (const service::SpecField &field : service::specFields()) {
        EXPECT_NE(text.find("  " + specFlag(field) + " "),
                  std::string::npos)
            << field.key;
        if (!field.alias.empty()) {
            EXPECT_NE(text.find("(" + std::string(field.alias) + ")"),
                      std::string::npos)
                << field.key;
        }
    }
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
