/**
 * @file
 * Property tests for the streaming reuse-distance profiler and the
 * shared log-histogram boundary math: hand-built streams with known
 * stack distances, mass conservation, cold-miss accounting, and the
 * permutation invariances the definitions guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "trace/footprint.hh"
#include "trace/reuse_profile.hh"
#include "util/bitutil.hh"
#include "util/log_histogram.hh"
#include "util/random.hh"

using namespace sbsim;

namespace {

/** Feed block-aligned addresses for the given block numbers. */
ReuseProfiler
profileBlocks(const std::vector<std::uint64_t> &blocks,
              unsigned block_size = 64)
{
    ReuseProfiler prof(block_size);
    for (std::uint64_t b : blocks)
        prof.onAccess(b * block_size);
    return prof;
}

/** Total histogram mass whose distance falls in [lo, hi). */
std::uint64_t
massIn(const Log2Histogram &h, std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t mass = 0;
    h.forEachBucket([&](std::uint64_t b_lo, std::uint64_t width,
                        std::uint64_t count) {
        if (b_lo >= lo && b_lo + width <= hi)
            mass += count;
    });
    return mass;
}

} // namespace

TEST(Log2Histogram, BoundariesRoundTrip)
{
    // Every value lands in a bucket that actually contains it, and
    // buckets below 2 * kSubBuckets are exact.
    for (std::uint64_t v = 0; v < 5000; ++v) {
        std::size_t idx = Log2Histogram::indexFor(v);
        std::uint64_t lo = Log2Histogram::lowerBound(idx);
        std::uint64_t width = Log2Histogram::bucketWidth(idx);
        ASSERT_LE(lo, v) << "value " << v;
        ASSERT_LT(v, lo + width) << "value " << v;
        if (v < 2 * Log2Histogram::kSubBuckets) {
            ASSERT_EQ(width, 1u) << "value " << v;
        }
    }
    // Spot-check large values (indexFor must stay monotone and
    // consistent far beyond the exact range).
    for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40);
         v = v * 3 + 7) {
        std::size_t idx = Log2Histogram::indexFor(v);
        std::uint64_t lo = Log2Histogram::lowerBound(idx);
        std::uint64_t width = Log2Histogram::bucketWidth(idx);
        ASSERT_LE(lo, v);
        ASSERT_LT(v, lo + width);
        // Once buckets widen past 1, relative width never exceeds
        // 1/kSubBuckets (below that the exact buckets are trivially
        // finer).
        if (width > 1) {
            ASSERT_LE(width * Log2Histogram::kSubBuckets, lo + width);
        }
    }
}

TEST(Log2Histogram, AdjacentBucketsTile)
{
    // lowerBound(idx+1) == lowerBound(idx) + bucketWidth(idx): the
    // buckets tile the domain with no gaps or overlaps.
    for (std::size_t idx = 0; idx < 2000; ++idx) {
        ASSERT_EQ(Log2Histogram::lowerBound(idx + 1),
                  Log2Histogram::lowerBound(idx) +
                      Log2Histogram::bucketWidth(idx))
            << "bucket " << idx;
    }
}

TEST(BlockFootprint, CountsDistinctBlocks)
{
    BlockFootprint fp(64);
    EXPECT_TRUE(fp.touch(0));
    EXPECT_FALSE(fp.touch(63));  // same block
    EXPECT_TRUE(fp.touch(64));   // next block
    EXPECT_TRUE(fp.touch(1024));
    EXPECT_EQ(fp.uniqueBlocks(), 3u);
    EXPECT_EQ(fp.footprintBytes(), 3u * 64);
    fp.clear();
    EXPECT_EQ(fp.uniqueBlocks(), 0u);
    EXPECT_TRUE(fp.touch(0));
}

TEST(BlockFootprint, MatchesAnOrderedSetAcrossGrowthAndClear)
{
    // Random and adversarial block numbers: both ends of the 64-bit
    // range (with 1-byte blocks, block ~0 is the table's empty
    // marker), power-of-two strides that share their low bits, dense
    // runs, and repeats, fed past several doublings of the table.
    for (unsigned block_size : {1u, 64u}) {
        SCOPED_TRACE("block size " + std::to_string(block_size));
        const unsigned shift = floorLog2(block_size);
        BlockFootprint fp(block_size);
        std::set<std::uint64_t> ref;
        auto touch = [&](Addr a) {
            const bool fresh = ref.insert(a >> shift).second;
            ASSERT_EQ(fp.touch(a), fresh) << std::hex << a;
            ASSERT_EQ(fp.uniqueBlocks(), ref.size());
            ASSERT_EQ(fp.footprintBytes(), ref.size() * block_size);
        };
        Pcg32 rng(0xf007 + block_size);
        for (int round = 0; round < 2; ++round) {
            for (Addr a : {Addr{0}, ~Addr{0}, ~Addr{0} - 1,
                           Addr{1} << 63, (Addr{1} << 63) - 1,
                           ~Addr{0}, Addr{0}})
                touch(a);
            for (unsigned k = 4; k < 64; ++k)
                for (std::uint64_t m = 1; m <= 64; ++m)
                    touch((m << k) | 5);
            for (Addr a = 0; a < 5000ull * block_size; a += block_size)
                touch(a);
            for (int i = 0; i < 30000; ++i) {
                Addr a = rng.next64();
                touch(rng.below(4) == 0 ? a & 0xffff : a);
            }
            // Many doublings past the table's initial 1024 slots.
            ASSERT_GT(ref.size(), 20000u);
            fp.clear();
            ref.clear();
            EXPECT_EQ(fp.uniqueBlocks(), 0u);
            EXPECT_EQ(fp.footprintBytes(), 0u);
        }
    }
}

TEST(ReuseProfiler, SequentialStreamIsAllCold)
{
    // A never-repeating stream has no finite reuse distances at all.
    std::vector<std::uint64_t> blocks;
    for (std::uint64_t b = 0; b < 1000; ++b)
        blocks.push_back(b);
    ReuseProfiler prof = profileBlocks(blocks);
    EXPECT_EQ(prof.references(), 1000u);
    EXPECT_EQ(prof.coldMisses(), 1000u);
    EXPECT_EQ(prof.uniqueBlocks(), 1000u);
    EXPECT_EQ(prof.histogram().totalCount(), 0u);
    EXPECT_EQ(prof.maxDistance(), 0u);
}

TEST(ReuseProfiler, CyclicStreamHasKnownDistance)
{
    // Cycling over k distinct blocks: after the k cold references,
    // every reference re-touches its block with exactly k-1 distinct
    // blocks in between.
    for (std::uint64_t k : {1u, 2u, 7u, 32u, 100u}) {
        std::vector<std::uint64_t> blocks;
        const int passes = 5;
        for (int p = 0; p < passes; ++p)
            for (std::uint64_t b = 0; b < k; ++b)
                blocks.push_back(b);
        ReuseProfiler prof = profileBlocks(blocks);
        EXPECT_EQ(prof.coldMisses(), k) << "k=" << k;
        const std::uint64_t warm = (passes - 1) * k;
        EXPECT_EQ(prof.histogram().totalCount(), warm) << "k=" << k;
        // All warm mass sits at exactly distance k-1.
        std::size_t idx = Log2Histogram::indexFor(k - 1);
        std::uint64_t lo = Log2Histogram::lowerBound(idx);
        EXPECT_EQ(massIn(prof.histogram(), lo,
                         lo + Log2Histogram::bucketWidth(idx)),
                  warm)
            << "k=" << k;
        if (k >= 2) {
            EXPECT_EQ(prof.maxDistance(), k - 1) << "k=" << k;
        }
    }
}

TEST(ReuseProfiler, TwoPhaseHandComputed)
{
    // Phase 1 touches blocks 0..29, phase 2 re-touches block 0: the
    // reuse distance is the 29 distinct blocks seen in between.
    std::vector<std::uint64_t> blocks;
    for (std::uint64_t b = 0; b < 30; ++b)
        blocks.push_back(b);
    blocks.push_back(0);
    ReuseProfiler prof = profileBlocks(blocks);
    EXPECT_EQ(prof.references(), 31u);
    EXPECT_EQ(prof.coldMisses(), 30u);
    EXPECT_EQ(prof.histogram().totalCount(), 1u);
    EXPECT_EQ(prof.maxDistance(), 29u);
}

TEST(ReuseProfiler, RepeatedBlockHasDistanceZero)
{
    // Consecutive references to the same block: distance 0, and sub-
    // block addresses all collapse onto it.
    ReuseProfiler prof(64);
    prof.onAccess(0x100);
    prof.onAccess(0x108); // same 64 B block
    prof.onAccess(0x13f); // still the same block
    EXPECT_EQ(prof.references(), 3u);
    EXPECT_EQ(prof.uniqueBlocks(), 1u);
    EXPECT_EQ(prof.histogram().totalCount(), 2u);
    EXPECT_EQ(prof.histogram().count(0), 2u);
    EXPECT_EQ(prof.maxDistance(), 0u);
}

TEST(ReuseProfiler, DistanceCountsDistinctNotTotal)
{
    // A, B, B, B, A: three intervening references but only one
    // distinct block, so A's reuse distance is 1.
    ReuseProfiler prof = profileBlocks({0, 1, 1, 1, 0});
    // Warm references: B twice at distance 0, A once at distance 1.
    EXPECT_EQ(prof.histogram().count(0), 2u);
    EXPECT_EQ(prof.histogram().count(1), 1u);
    EXPECT_EQ(prof.maxDistance(), 1u);
}

TEST(ReuseProfiler, MassConservationOnRandomStream)
{
    // histogram mass + cold misses == references, for any stream.
    Pcg32 rng(12345);
    std::vector<std::uint64_t> blocks;
    for (int i = 0; i < 20000; ++i)
        blocks.push_back(rng.below(700));
    ReuseProfiler prof = profileBlocks(blocks);
    EXPECT_EQ(prof.references(), 20000u);
    EXPECT_EQ(prof.histogram().totalCount() + prof.coldMisses(),
              prof.references());
    EXPECT_EQ(prof.coldMisses(), prof.uniqueBlocks());
    EXPECT_EQ(prof.footprintBytes(), prof.uniqueBlocks() * 64);
}

TEST(ReuseProfiler, PermutationInvariants)
{
    // Shuffling the stream changes individual distances but never the
    // reference count, the footprint, or mass conservation.
    Pcg32 rng(99);
    std::vector<std::uint64_t> blocks;
    for (int i = 0; i < 5000; ++i)
        blocks.push_back(rng.below(400));
    ReuseProfiler base = profileBlocks(blocks);

    std::vector<std::uint64_t> shuffled = blocks;
    for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1], shuffled[rng.below(
                                       static_cast<std::uint32_t>(i))]);
    ReuseProfiler perm = profileBlocks(shuffled);

    EXPECT_EQ(perm.references(), base.references());
    EXPECT_EQ(perm.uniqueBlocks(), base.uniqueBlocks());
    EXPECT_EQ(perm.coldMisses(), base.coldMisses());
    EXPECT_EQ(perm.histogram().totalCount(),
              base.histogram().totalCount());
}

TEST(ReuseProfiler, GrowthPreservesDistances)
{
    // Push the profiler far past its initial Fenwick capacity so the
    // grow-and-rebuild path runs several times, and check the cyclic-
    // stream distances stay exact throughout.
    const std::uint64_t k = 500;
    const int passes = 40; // 20000 references total
    std::vector<std::uint64_t> blocks;
    for (int p = 0; p < passes; ++p)
        for (std::uint64_t b = 0; b < k; ++b)
            blocks.push_back(b);
    ReuseProfiler prof = profileBlocks(blocks);
    EXPECT_EQ(prof.coldMisses(), k);
    std::size_t idx = Log2Histogram::indexFor(k - 1);
    EXPECT_EQ(massIn(prof.histogram(),
                     Log2Histogram::lowerBound(idx),
                     Log2Histogram::lowerBound(idx) +
                         Log2Histogram::bucketWidth(idx)),
              (passes - 1) * k);
}
