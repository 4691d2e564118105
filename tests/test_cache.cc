/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "cache/cache.hh"

using namespace sbsim;

namespace {

CacheConfig
smallConfig(std::uint32_t assoc = 2, std::uint32_t block = 32,
            ReplacementKind repl = ReplacementKind::LRU)
{
    CacheConfig c;
    c.sizeBytes = 1024; // 1 KB: easy to fill in tests.
    c.assoc = assoc;
    c.blockSize = block;
    c.replacement = repl;
    return c;
}

} // namespace

TEST(CacheConfig, NumSets)
{
    CacheConfig c = smallConfig(2, 32);
    EXPECT_EQ(c.numSets(), 16u);
    c.assoc = 4;
    EXPECT_EQ(c.numSets(), 8u);
}

TEST(CacheConfigDeath, Validation)
{
    CacheConfig c = smallConfig();
    c.blockSize = 48;
    EXPECT_EXIT(Cache{c}, ::testing::ExitedWithCode(1), "power of two");
    c = smallConfig();
    c.assoc = 0;
    EXPECT_EXIT(Cache{c}, ::testing::ExitedWithCode(1), "associativity");
    c = smallConfig();
    c.sizeBytes = 1000;
    EXPECT_EXIT(Cache{c}, ::testing::ExitedWithCode(1), "multiple");
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallConfig());
    CacheResult r1 = cache.access(makeLoad(0x100));
    EXPECT_FALSE(r1.hit);
    EXPECT_TRUE(r1.filled);
    CacheResult r2 = cache.access(makeLoad(0x104));
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(cache.accesses(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_DOUBLE_EQ(cache.missRatePercent(), 50.0);
}

TEST(Cache, ConflictEvictionDirectMapped)
{
    Cache cache(smallConfig(1)); // 32 sets of 1 way.
    // Two addresses 1 KB apart map to the same set.
    EXPECT_FALSE(cache.access(makeLoad(0x0)).hit);
    EXPECT_FALSE(cache.access(makeLoad(0x400)).hit);
    // The first block was evicted.
    EXPECT_FALSE(cache.access(makeLoad(0x0)).hit);
}

TEST(Cache, AssociativityHoldsConflictingBlocks)
{
    Cache cache(smallConfig(2));
    // Two conflicting blocks fit in a 2-way set.
    cache.access(makeLoad(0x0));
    cache.access(makeLoad(0x400));
    EXPECT_TRUE(cache.access(makeLoad(0x0)).hit);
    EXPECT_TRUE(cache.access(makeLoad(0x400)).hit);
}

TEST(Cache, LruEvictsLeastRecent)
{
    Cache cache(smallConfig(2));
    cache.access(makeLoad(0x0));   // Set 0, A.
    cache.access(makeLoad(0x400)); // Set 0, B.
    cache.access(makeLoad(0x0));   // Touch A: B is now LRU.
    cache.access(makeLoad(0x800)); // C evicts B.
    EXPECT_TRUE(cache.access(makeLoad(0x0)).hit);
    EXPECT_FALSE(cache.access(makeLoad(0x400)).hit);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    Cache cache(smallConfig(1));
    cache.access(makeStore(0x0));
    CacheResult r = cache.access(makeLoad(0x400));
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, 0x0u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache cache(smallConfig(1));
    cache.access(makeLoad(0x0));
    CacheResult r = cache.access(makeLoad(0x400));
    EXPECT_FALSE(r.writeback);
    EXPECT_TRUE(r.victimEvicted);
    EXPECT_EQ(r.victimAddr, 0x0u);
}

TEST(Cache, WriteAllocateBringsBlockIn)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.access(makeStore(0x40)).hit);
    EXPECT_TRUE(cache.probe(0x40));
    EXPECT_TRUE(cache.access(makeLoad(0x40)).hit);
}

TEST(Cache, WriteNoAllocateBypasses)
{
    CacheConfig c = smallConfig();
    c.writeAllocate = false;
    Cache cache(c);
    EXPECT_FALSE(cache.access(makeStore(0x40)).hit);
    EXPECT_FALSE(cache.probe(0x40));
}

TEST(Cache, WriteHitSetsDirty)
{
    Cache cache(smallConfig(1));
    cache.access(makeLoad(0x0));  // Clean fill.
    cache.access(makeStore(0x8)); // Dirty it.
    CacheResult r = cache.access(makeLoad(0x400));
    EXPECT_TRUE(r.writeback);
}

TEST(Cache, FillActsLikeDemandFill)
{
    Cache cache(smallConfig());
    CacheResult r = cache.fill(0x123);
    EXPECT_TRUE(r.filled);
    EXPECT_TRUE(cache.probe(0x123));
    // Filling again is a no-op hit.
    CacheResult again = cache.fill(0x123);
    EXPECT_TRUE(again.hit);
    EXPECT_FALSE(again.filled);
}

TEST(Cache, FillDirtyGeneratesLaterWriteback)
{
    Cache cache(smallConfig(1));
    cache.fill(0x0, /*dirty=*/true);
    CacheResult r = cache.access(makeLoad(0x400));
    EXPECT_TRUE(r.writeback);
}

TEST(Cache, InvalidateRemovesBlock)
{
    Cache cache(smallConfig());
    cache.access(makeLoad(0x100));
    EXPECT_TRUE(cache.invalidate(0x110)); // Same block.
    EXPECT_FALSE(cache.probe(0x100));
    EXPECT_FALSE(cache.invalidate(0x100)); // Already gone.
}

TEST(Cache, ResidentBlocksTracksFills)
{
    Cache cache(smallConfig());
    EXPECT_EQ(cache.residentBlocks(), 0u);
    cache.access(makeLoad(0x0));
    cache.access(makeLoad(0x20));
    cache.access(makeLoad(0x0));
    EXPECT_EQ(cache.residentBlocks(), 2u);
}

TEST(Cache, ResetClearsContentsAndStats)
{
    Cache cache(smallConfig());
    cache.access(makeLoad(0x0));
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.residentBlocks(), 0u);
    EXPECT_FALSE(cache.probe(0x0));
}

TEST(Cache, AllOnesTagInASingleSetOfOneByteBlocks)
{
    // 1-byte blocks in one set: the tag is the whole address, so the
    // block at ~0 has an all-ones tag, the word an invalid way holds.
    CacheConfig c;
    c.sizeBytes = 2;
    c.assoc = 2;
    c.blockSize = 1;
    c.replacement = ReplacementKind::LRU;
    ASSERT_EQ(c.numSets(), 1u);
    Cache cache(c);
    const Addr ones = ~Addr{0};

    // Empty ways must not read as holding ~0.
    EXPECT_FALSE(cache.probe(ones));
    EXPECT_FALSE(cache.probe(0));
    EXPECT_FALSE(cache.invalidate(ones));
    EXPECT_EQ(cache.residentBlocks(), 0u);

    CacheResult r = cache.access(makeStore(ones));
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.filled);
    EXPECT_FALSE(r.victimEvicted);
    EXPECT_EQ(cache.residentBlocks(), 1u);
    EXPECT_TRUE(cache.access(makeLoad(ones)).hit);
    EXPECT_FALSE(cache.probe(0));

    // Block 0 takes the free way rather than evicting ~0.
    r = cache.access(makeLoad(0));
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.victimEvicted);
    EXPECT_EQ(cache.residentBlocks(), 2u);
    EXPECT_TRUE(cache.probe(ones));
    EXPECT_TRUE(cache.probe(0));

    // ~0 is now LRU and dirty: the next miss evicts and writes it back
    // at its exact address.
    r = cache.access(makeLoad(5));
    ASSERT_TRUE(r.victimEvicted);
    EXPECT_EQ(r.victimAddr, ones);
    ASSERT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, ones);
    EXPECT_FALSE(cache.probe(ones));
    EXPECT_EQ(cache.residentBlocks(), 2u);

    // Block 0 is LRU: a clean fill of ~0 evicts it without write-back.
    r = cache.fill(ones, /*dirty=*/false);
    ASSERT_TRUE(r.victimEvicted);
    EXPECT_EQ(r.victimAddr, 0u);
    EXPECT_FALSE(r.writeback);
    EXPECT_TRUE(cache.probe(ones));

    // Invalidation frees the way for another block.
    EXPECT_TRUE(cache.invalidate(ones));
    EXPECT_FALSE(cache.invalidate(ones));
    EXPECT_FALSE(cache.probe(ones));
    EXPECT_EQ(cache.residentBlocks(), 1u);
    r = cache.access(makeLoad(0));
    EXPECT_FALSE(r.victimEvicted);
    EXPECT_EQ(cache.residentBlocks(), 2u);

    // Reset forgets ~0 too.
    cache.access(makeLoad(5));
    cache.access(makeStore(ones));
    EXPECT_TRUE(cache.probe(ones));
    cache.reset();
    EXPECT_EQ(cache.residentBlocks(), 0u);
    EXPECT_FALSE(cache.probe(ones));
    EXPECT_FALSE(cache.probe(0));
    r = cache.access(makeLoad(ones));
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.victimEvicted);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, AllOnesTagDirectMapped)
{
    CacheConfig c;
    c.sizeBytes = 1;
    c.assoc = 1;
    c.blockSize = 1;
    Cache cache(c);
    const Addr ones = ~Addr{0};
    cache.access(makeStore(0));
    CacheResult r = cache.access(makeStore(ones));
    ASSERT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, 0u);
    r = cache.access(makeLoad(0));
    ASSERT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, ones);
    EXPECT_EQ(cache.residentBlocks(), 1u);
    EXPECT_TRUE(cache.invalidate(0));
    EXPECT_EQ(cache.residentBlocks(), 0u);
}

TEST(Cache, StatsGroupUsesName)
{
    Cache cache(smallConfig(), "l1.dcache");
    cache.access(makeLoad(0x0));
    StatGroup g = cache.stats();
    EXPECT_EQ(g.name(), "l1.dcache");
}

/**
 * Property sweep: for any geometry, filling exactly `capacity` distinct
 * blocks that map across all sets leaves everything resident (LRU),
 * and re-touching them all hits.
 */
struct CacheGeom
{
    std::uint64_t size;
    std::uint32_t assoc;
    std::uint32_t block;
};

class CacheGeometry : public ::testing::TestWithParam<CacheGeom>
{};

TEST_P(CacheGeometry, FullCapacityResidency)
{
    auto [size, assoc, block] = GetParam();
    CacheConfig c;
    c.sizeBytes = size;
    c.assoc = assoc;
    c.blockSize = block;
    c.replacement = ReplacementKind::LRU;
    Cache cache(c);

    std::uint64_t blocks = size / block;
    for (std::uint64_t i = 0; i < blocks; ++i)
        EXPECT_FALSE(cache.access(makeLoad(i * block)).hit);
    EXPECT_EQ(cache.residentBlocks(), blocks);
    for (std::uint64_t i = 0; i < blocks; ++i)
        EXPECT_TRUE(cache.access(makeLoad(i * block)).hit);
    // One more distinct block evicts exactly one.
    cache.access(makeLoad(blocks * block));
    EXPECT_EQ(cache.residentBlocks(), blocks);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(CacheGeom{1024, 1, 32}, CacheGeom{1024, 2, 32},
                      CacheGeom{4096, 4, 32}, CacheGeom{4096, 4, 64},
                      CacheGeom{8192, 8, 128}, CacheGeom{65536, 4, 32}));
