/** @file Unit tests for the prefetch engine (streams + filters). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stream/prefetch_engine.hh"
#include "util/random.hh"

using namespace sbsim;

namespace {

constexpr std::uint32_t kBlock = 32;

StreamEngineConfig
baseConfig(AllocationPolicy policy = AllocationPolicy::ALWAYS,
           StrideDetection stride = StrideDetection::NONE)
{
    StreamEngineConfig c;
    c.numStreams = 4;
    c.depth = 2;
    c.blockSize = kBlock;
    c.allocation = policy;
    c.strideDetection = stride;
    c.unitFilterEntries = 8;
    c.strideFilterEntries = 8;
    c.czoneBits = 18;
    return c;
}

/** Feed a sequential run of block-spaced misses. */
void
sequentialRun(PrefetchEngine &engine, Addr base, int n,
              std::uint64_t &now)
{
    for (int i = 0; i < n; ++i)
        engine.onPrimaryMiss(makeLoad(base + i * kBlock), ++now);
}

} // namespace

TEST(PrefetchEngine, AlwaysPolicyAllocatesOnFirstMiss)
{
    PrefetchEngine engine(baseConfig());
    EngineOutcome out = engine.onPrimaryMiss(makeLoad(0x1000), 1);
    EXPECT_FALSE(out.streamHit);
    EXPECT_TRUE(out.allocated);
    EXPECT_EQ(out.prefetchesIssued, 2u);
    // Next block hits and issues one refill.
    EngineOutcome hit = engine.onPrimaryMiss(makeLoad(0x1020), 2);
    EXPECT_TRUE(hit.streamHit);
    EXPECT_EQ(hit.prefetchesIssued, 1u);
}

TEST(PrefetchEngine, SequentialHitRateApproachesOne)
{
    PrefetchEngine engine(baseConfig());
    std::uint64_t now = 0;
    sequentialRun(engine, 0x10000, 200, now);
    engine.finalize();
    const StreamEngineStats &s = engine.engineStats();
    EXPECT_EQ(s.lookups, 200u);
    EXPECT_EQ(s.hits, 199u); // Only the first miss misses.
    EXPECT_EQ(s.streamMisses, 1u);
}

TEST(PrefetchEngine, FilterPolicyNeedsTwoConsecutiveMisses)
{
    PrefetchEngine engine(baseConfig(AllocationPolicy::UNIT_FILTER));
    EngineOutcome first = engine.onPrimaryMiss(makeLoad(0x1000), 1);
    EXPECT_FALSE(first.allocated);
    EngineOutcome second = engine.onPrimaryMiss(makeLoad(0x1020), 2);
    EXPECT_TRUE(second.allocated);
    EngineOutcome third = engine.onPrimaryMiss(makeLoad(0x1040), 3);
    EXPECT_TRUE(third.streamHit);
}

TEST(PrefetchEngine, FilterSuppressesIsolatedAllocations)
{
    PrefetchEngine engine(baseConfig(AllocationPolicy::UNIT_FILTER));
    std::uint64_t now = 0;
    // Isolated references: no allocations, no prefetch traffic.
    for (int i = 0; i < 50; ++i)
        engine.onPrimaryMiss(makeLoad(0x10000 + i * 0x5000), ++now);
    engine.finalize();
    const StreamEngineStats &s = engine.engineStats();
    EXPECT_EQ(s.allocations, 0u);
    EXPECT_EQ(s.prefetchesIssued, 0u);
    EXPECT_DOUBLE_EQ(s.extraBandwidthPercent(), 0.0);
}

TEST(PrefetchEngine, AlwaysPolicyWastesOnIsolatedReferences)
{
    PrefetchEngine engine(baseConfig(AllocationPolicy::ALWAYS));
    std::uint64_t now = 0;
    for (int i = 0; i < 50; ++i)
        engine.onPrimaryMiss(makeLoad(0x10000 + i * 0x5000), ++now);
    engine.finalize();
    const StreamEngineStats &s = engine.engineStats();
    EXPECT_EQ(s.allocations, 50u);
    // Every prefetch was useless: EB = depth * misses / misses = 200%.
    EXPECT_NEAR(s.extraBandwidthPercent(), 200.0, 1e-9);
}

TEST(PrefetchEngine, CzoneFallThroughDetectsStride)
{
    PrefetchEngine engine(
        baseConfig(AllocationPolicy::UNIT_FILTER, StrideDetection::CZONE));
    std::uint64_t now = 0;
    int hits = 0;
    for (int i = 0; i < 20; ++i) {
        EngineOutcome out =
            engine.onPrimaryMiss(makeLoad(0x100000 + i * 0x400), ++now);
        if (out.streamHit)
            ++hits;
    }
    // Three misses to verify, then hits.
    EXPECT_EQ(hits, 17);
    EXPECT_EQ(engine.czoneFilter()->allocations(), 1u);
}

TEST(PrefetchEngine, MinDeltaFallThroughAllocates)
{
    PrefetchEngine engine(baseConfig(AllocationPolicy::UNIT_FILTER,
                                     StrideDetection::MIN_DELTA));
    std::uint64_t now = 0;
    int hits = 0;
    for (int i = 0; i < 20; ++i) {
        EngineOutcome out =
            engine.onPrimaryMiss(makeLoad(0x100000 + i * 0x400), ++now);
        if (out.streamHit)
            ++hits;
    }
    // Min-delta locks on after two misses.
    EXPECT_GE(hits, 17);
    EXPECT_GT(engine.minDelta()->allocations(), 0u);
}

TEST(PrefetchEngine, PrefetchConservation)
{
    // Every issued prefetch ends up exactly one of: consumed by a hit,
    // invalidated by a write-back, or flushed.
    PrefetchEngine engine(baseConfig());
    std::uint64_t now = 0;
    sequentialRun(engine, 0x10000, 50, now);
    engine.onWriteback(0x10000 + 51 * kBlock); // Invalidate in-flight.
    sequentialRun(engine, 0x90000, 7, now);
    for (int i = 0; i < 9; ++i)
        engine.onPrimaryMiss(makeLoad(0x200000 + i * 0x3000), ++now);
    engine.finalize();
    const StreamEngineStats &s = engine.engineStats();
    EXPECT_EQ(s.prefetchesIssued,
              s.hits + s.uselessFlushed + s.uselessInvalidated);
}

TEST(PrefetchEngine, WritebackInvalidationBreaksRun)
{
    PrefetchEngine engine(baseConfig());
    std::uint64_t now = 0;
    engine.onPrimaryMiss(makeLoad(0x1000), ++now); // Alloc: 1020, 1040.
    engine.onWriteback(0x1020);
    EngineOutcome out = engine.onPrimaryMiss(makeLoad(0x1020), ++now);
    EXPECT_FALSE(out.streamHit);
    EXPECT_EQ(engine.engineStats().uselessInvalidated, 1u);
}

TEST(PrefetchEngine, LengthDistributionWeightsByHits)
{
    PrefetchEngine engine(baseConfig());
    std::uint64_t now = 0;
    sequentialRun(engine, 0x10000, 31, now); // Run of 30 hits.
    sequentialRun(engine, 0x90000, 4, now);  // Run of 3 hits.
    engine.finalize();
    const BucketedDistribution &dist = engine.lengthDistribution();
    EXPECT_EQ(dist.total(), 33u);
    EXPECT_EQ(dist.count(0), 3u);  // 1-5 bucket.
    EXPECT_EQ(dist.count(4), 30u); // >20 bucket.
}

TEST(PrefetchEngine, PartitionedRoutesInstructionMissesSeparately)
{
    StreamEngineConfig config = baseConfig();
    config.partitioned = true;
    PrefetchEngine engine(config);
    std::uint64_t now = 0;
    // A data stream and an instruction stream at the same addresses
    // must not interfere.
    engine.onPrimaryMiss(makeLoad(0x1000), ++now);
    engine.onPrimaryMiss(makeIfetch(0x1000), ++now);
    EngineOutcome d = engine.onPrimaryMiss(makeLoad(0x1020), ++now);
    EngineOutcome i = engine.onPrimaryMiss(makeIfetch(0x1020), ++now);
    EXPECT_TRUE(d.streamHit);
    EXPECT_TRUE(i.streamHit);
}

TEST(PrefetchEngine, StatsGroupExports)
{
    PrefetchEngine engine(baseConfig());
    std::uint64_t now = 0;
    sequentialRun(engine, 0, 10, now);
    StatGroup g = engine.stats();
    EXPECT_EQ(g.name(), "streams");
    EXPECT_FALSE(g.stats().empty());
}

namespace {

/** Drive @p n misses from six interleaved sequential streams, with
 *  scattered isolated misses and write-backs mixed in. */
std::vector<EngineOutcome>
interleavedMisses(PrefetchEngine &engine, std::uint64_t seed, int n,
                  std::vector<std::vector<BlockAddr>> *issued = nullptr)
{
    Pcg32 rng(seed);
    std::uint64_t pos[6] = {};
    std::vector<EngineOutcome> out;
    for (int i = 0; i < n; ++i) {
        Addr a;
        std::uint32_t k = rng.below(6);
        if (rng.below(8) == 0)
            a = 0x4000000 + std::uint64_t{rng.below(1 << 20)} * kBlock;
        else
            a = 0x100000 * (k + 1) + pos[k]++ * kBlock;
        out.push_back(engine.onPrimaryMiss(
            k == 5 ? makeIfetch(a) : makeLoad(a), 1000 + i));
        if (issued) {
            auto blocks = engine.lastIssuedBlocks();
            issued->emplace_back(blocks.begin(), blocks.end());
        }
        if (i % 16 == 15)
            engine.onWriteback(0x100000 * (k + 1) + (pos[k] + 1) * kBlock);
    }
    return out;
}

} // namespace

TEST(PrefetchEngine, ResetRestoresPristineState)
{
    PrefetchEngine engine(baseConfig());
    std::uint64_t now = 0;
    sequentialRun(engine, 0, 10, now);
    engine.finalize();
    engine.reset();
    EXPECT_EQ(engine.engineStats().lookups, 0u);
    EXPECT_EQ(engine.lengthDistribution().total(), 0u);
    // Usable again after reset.
    EngineOutcome out = engine.onPrimaryMiss(makeLoad(0), 1);
    EXPECT_FALSE(out.streamHit);

    // A reset engine replays a miss sequence exactly as a fresh one,
    // under every replacement policy: the LRU clock, the FIFO
    // rotation pointer and the random generator are rewound too.
    for (StreamReplacement repl :
         {StreamReplacement::LRU, StreamReplacement::FIFO,
          StreamReplacement::RANDOM}) {
        for (bool filtered : {false, true}) {
            SCOPED_TRACE(std::string(toString(repl)) +
                         (filtered ? "/unit+czone" : "/always"));
            StreamEngineConfig config =
                filtered ? baseConfig(AllocationPolicy::UNIT_FILTER,
                                      StrideDetection::CZONE)
                         : baseConfig();
            config.replacement = repl;
            config.partitioned = true;
            PrefetchEngine used(config);
            interleavedMisses(used, 7, 300);
            used.finalize();
            used.reset();
            EXPECT_TRUE(used.lastIssuedBlocks().empty());

            PrefetchEngine fresh(config);
            std::vector<std::vector<BlockAddr>> got_blocks, want_blocks;
            auto got = interleavedMisses(used, 11, 200, &got_blocks);
            auto want = interleavedMisses(fresh, 11, 200, &want_blocks);
            int differing = 0;
            for (std::size_t i = 0; i < want.size(); ++i) {
                differing += got[i].streamHit != want[i].streamHit ||
                             got[i].issueTick != want[i].issueTick ||
                             got[i].allocated != want[i].allocated ||
                             got_blocks[i] != want_blocks[i];
            }
            EXPECT_EQ(differing, 0);
            used.finalize();
            fresh.finalize();
            EXPECT_EQ(used.engineStats().hits, fresh.engineStats().hits);
            EXPECT_EQ(used.engineStats().uselessFlushed,
                      fresh.engineStats().uselessFlushed);
            EXPECT_EQ(used.engineStats().uselessInvalidated,
                      fresh.engineStats().uselessInvalidated);
        }
    }
}

TEST(PrefetchEngineDeath, StrideDetectionRequiresFilterPolicy)
{
    StreamEngineConfig config = baseConfig();
    config.strideDetection = StrideDetection::CZONE;
    EXPECT_DEATH(PrefetchEngine{config}, "unit-filter");
}

/** Property: hit rate of a pure sequential run is (n-1)/n for any
 *  stream count and depth. */
struct EngineGeom
{
    std::uint32_t streams;
    std::uint32_t depth;
};

class EngineGeometry : public ::testing::TestWithParam<EngineGeom>
{};

TEST_P(EngineGeometry, SequentialRunMissesExactlyOnce)
{
    auto [streams, depth] = GetParam();
    StreamEngineConfig config;
    config.numStreams = streams;
    config.depth = depth;
    config.blockSize = kBlock;
    PrefetchEngine engine(config);
    std::uint64_t now = 0;
    sequentialRun(engine, 0x40000, 100, now);
    EXPECT_EQ(engine.engineStats().streamMisses, 1u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, EngineGeometry,
                         ::testing::Values(EngineGeom{1, 1},
                                           EngineGeom{1, 2},
                                           EngineGeom{4, 2},
                                           EngineGeom{10, 2},
                                           EngineGeom{10, 8}));

TEST(PrefetchEngine, AssociativeLookupCatchesStrideTwoPattern)
{
    // Misses to every second block: the head never matches (it holds
    // the skipped block), but the quasi-sequential variant does.
    StreamEngineConfig head_only = baseConfig();
    head_only.depth = 4;
    StreamEngineConfig assoc = head_only;
    assoc.associativeLookup = true;

    auto hits = [](const StreamEngineConfig &config) {
        PrefetchEngine engine(config);
        std::uint64_t now = 0;
        for (int i = 0; i < 40; ++i)
            engine.onPrimaryMiss(
                makeLoad(0x10000 + i * 2 * kBlock), ++now);
        engine.finalize();
        return engine.engineStats().hits;
    };
    EXPECT_EQ(hits(head_only), 0u);
    EXPECT_GT(hits(assoc), 30u);
}

TEST(PrefetchEngine, AssociativeConservationStillHolds)
{
    StreamEngineConfig config = baseConfig();
    config.depth = 4;
    config.associativeLookup = true;
    PrefetchEngine engine(config);
    std::uint64_t now = 0;
    for (int i = 0; i < 50; ++i)
        engine.onPrimaryMiss(makeLoad(0x10000 + i * 2 * kBlock), ++now);
    for (int i = 0; i < 20; ++i)
        engine.onPrimaryMiss(makeLoad(0x900000 + i * 0x5000), ++now);
    engine.finalize();
    const StreamEngineStats &s = engine.engineStats();
    EXPECT_EQ(s.prefetchesIssued,
              s.hits + s.uselessFlushed + s.uselessInvalidated);
}
