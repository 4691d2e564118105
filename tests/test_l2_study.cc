/** @file Unit tests for the secondary-cache comparison study (Table 4). */

#include <gtest/gtest.h>

#include "cli_options.hh"
#include "sim/l2_study.hh"
#include "trace/source.hh"

using namespace sbsim;

namespace {

std::vector<CacheConfig>
twoSizes()
{
    CacheConfig small;
    small.sizeBytes = 64 * 1024;
    small.assoc = 2;
    small.blockSize = 64;
    small.replacement = ReplacementKind::LRU;
    CacheConfig big = small;
    big.sizeBytes = 1024 * 1024;
    return {small, big};
}

/** Loads cycling over a region bigger than L1 (64 KB). */
std::vector<MemAccess>
cyclingLoads(std::uint64_t region, int passes)
{
    std::vector<MemAccess> v;
    for (int p = 0; p < passes; ++p)
        for (std::uint64_t a = 0; a < region; a += 64)
            v.push_back(makeLoad(a));
    return v;
}

} // namespace

TEST(SecondaryCacheStudy, CountsMisses)
{
    SecondaryCacheStudy study(twoSizes(), /*sample_log2=*/0);
    study.onL1Miss(makeLoad(0x100));
    study.onL1Miss(makeLoad(0x100000));
    EXPECT_EQ(study.missesSeen(), 2u);
    auto results = study.results();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].sampledAccesses, 2u);
}

TEST(SecondaryCacheStudy, BiggerCacheNeverWorseOnCyclicScan)
{
    // A 512 KB cyclic scan fits in the 1 MB candidate but thrashes the
    // 64 KB one.
    L2StudyDriver driver(SplitCacheConfig::paperDefault(), twoSizes(),
                         /*sample_log2=*/2);
    VectorSource src(cyclingLoads(512 * 1024, 4));
    driver.run(src);
    auto results = driver.study().results();
    ASSERT_EQ(results.size(), 2u);
    double small_hit = results[0].localHitRatePercent;
    double big_hit = results[1].localHitRatePercent;
    EXPECT_GT(big_hit, 60.0);
    EXPECT_LT(small_hit, 20.0);
}

TEST(SecondaryCacheStudy, DriverOnlyForwardsL1Misses)
{
    L2StudyDriver driver(SplitCacheConfig::paperDefault(), twoSizes(), 0);
    // Two accesses to the same block: only the first misses L1.
    driver.processAccess(makeLoad(0x1000));
    driver.processAccess(makeLoad(0x1008));
    EXPECT_EQ(driver.study().missesSeen(), 1u);
}

TEST(Table4Candidates, FullGrid)
{
    auto configs = table4CandidateConfigs();
    // 7 sizes x 3 associativities x 2 block sizes.
    EXPECT_EQ(configs.size(), 42u);
    for (const auto &c : configs) {
        EXPECT_GE(c.sizeBytes, 64u * 1024);
        EXPECT_LE(c.sizeBytes, 4u * 1024 * 1024);
        EXPECT_TRUE(c.blockSize == 64 || c.blockSize == 128);
        EXPECT_EQ(c.replacement, ReplacementKind::LRU);
        c.validate(); // Must not be fatal.
    }
}

TEST(MinSizeReaching, PicksSmallestSufficientSize)
{
    std::vector<L2Result> results;
    CacheConfig c;
    c.sizeBytes = 64 * 1024;
    results.push_back({c, 40.0, 100});
    c.sizeBytes = 128 * 1024;
    results.push_back({c, 55.0, 100});
    c.sizeBytes = 256 * 1024;
    results.push_back({c, 80.0, 100});

    EXPECT_EQ(minSizeReaching(results, 50.0), 128u * 1024);
    EXPECT_EQ(minSizeReaching(results, 80.0), 256u * 1024);
    EXPECT_EQ(minSizeReaching(results, 30.0), 64u * 1024);
    EXPECT_FALSE(minSizeReaching(results, 90.0).has_value());
}

TEST(BestHitRateAtSize, TakesMaxOverConfigurations)
{
    std::vector<L2Result> results;
    CacheConfig c;
    c.sizeBytes = 64 * 1024;
    c.assoc = 1;
    results.push_back({c, 40.0, 100});
    c.assoc = 4;
    results.push_back({c, 62.0, 100});
    EXPECT_DOUBLE_EQ(bestHitRateAtSize(results, 64 * 1024), 62.0);
    EXPECT_DOUBLE_EQ(bestHitRateAtSize(results, 1 << 20), 0.0);
}

/** Property: on the cycling scan, hit rate is monotone in L2 size. */
class L2SizeMonotonicity
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(L2SizeMonotonicity, LargerIsBetterOrEqual)
{
    std::uint64_t region = GetParam();
    std::vector<CacheConfig> configs;
    for (std::uint64_t kb : {64u, 256u, 1024u, 4096u}) {
        CacheConfig c;
        c.sizeBytes = kb * 1024;
        c.assoc = 4;
        c.blockSize = 64;
        c.replacement = ReplacementKind::LRU;
        configs.push_back(c);
    }
    L2StudyDriver driver(SplitCacheConfig::paperDefault(), configs, 2);
    VectorSource src(cyclingLoads(region, 3));
    driver.run(src);
    auto results = driver.study().results();
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_GE(results[i].localHitRatePercent + 1.0,
                  results[i - 1].localHitRatePercent)
            << "size " << results[i].config.sizeBytes;
    }
}

INSTANTIATE_TEST_SUITE_P(Regions, L2SizeMonotonicity,
                         ::testing::Values(128u * 1024, 512u * 1024,
                                           2048u * 1024));

// ---------------------------------------------------------------------
// --l2-model CLI surface (tools/cli_options.cc): parse, reject, and
// cross-option validation paths.

TEST(L2ModelCli, ParsesEveryKind)
{
    using namespace sbsim::cli;
    auto parse = [](std::initializer_list<const char *> args) {
        return parseArgs(
            std::vector<std::string>(args.begin(), args.end()));
    };

    ParseResult r = parse({"run", "-b", "mgrid", "--l2", "256",
                           "--l2-model", "analytic"});
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.options.spec.l2Model.has_value());
    EXPECT_EQ(*r.options.spec.l2Model, L2ModelKind::ANALYTIC);

    r = parse({"sweep", "-b", "mgrid", "--l2", "256", "--l2-model",
               "both"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(*r.options.spec.l2Model, L2ModelKind::BOTH);

    // "simulated" is accepted without --l2 (it predicts nothing).
    r = parse({"run", "-b", "mgrid", "--l2-model", "simulated"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(*r.options.spec.l2Model, L2ModelKind::SIMULATED);

    // Unset flag leaves the optional empty (unset means simulated).
    r = parse({"run", "-b", "mgrid"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_FALSE(r.options.spec.l2Model.has_value());
}

TEST(L2ModelCli, RejectsBadValues)
{
    using namespace sbsim::cli;
    auto parse = [](std::initializer_list<const char *> args) {
        return parseArgs(
            std::vector<std::string>(args.begin(), args.end()));
    };

    // Unknown kind.
    EXPECT_FALSE(parse({"run", "-b", "mgrid", "--l2", "256",
                        "--l2-model", "oracle"})
                     .ok());
    // Case-sensitive.
    EXPECT_FALSE(parse({"run", "-b", "mgrid", "--l2", "256",
                        "--l2-model", "Both"})
                     .ok());
    // Missing value.
    EXPECT_FALSE(parse({"run", "-b", "mgrid", "--l2", "256",
                        "--l2-model"})
                     .ok());
    // analytic/both without a secondary cache to predict.
    EXPECT_FALSE(
        parse({"run", "-b", "mgrid", "--l2-model", "analytic"}).ok());
    EXPECT_FALSE(
        parse({"run", "-b", "mgrid", "--l2-model", "both"}).ok());
    // Wrong command.
    EXPECT_FALSE(parse({"analyze", "-b", "mgrid", "--l2-model",
                        "simulated"})
                     .ok());
}
