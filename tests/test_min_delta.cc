/** @file Unit tests for the minimum-delta stride detector (Section 7). */

#include <gtest/gtest.h>

#include <cstdint>

#include "stream/min_delta.hh"

using namespace sbsim;

TEST(MinDelta, FirstMissHasNoHistory)
{
    MinDeltaDetector det(8);
    EXPECT_FALSE(det.onMiss(0x1000).has_value());
}

TEST(MinDelta, SecondMissUsesDelta)
{
    MinDeltaDetector det(8);
    det.onMiss(0x1000);
    auto alloc = det.onMiss(0x1400);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->startAddr, 0x1400u);
    EXPECT_EQ(alloc->stride, 0x400);
}

TEST(MinDelta, PicksMinimumAbsoluteDelta)
{
    MinDeltaDetector det(8);
    det.onMiss(0x1000);
    det.onMiss(0x9000);
    auto alloc = det.onMiss(0x8c00); // 0x400 below 0x9000.
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->stride, -0x400);
}

TEST(MinDelta, ZeroDeltaIgnored)
{
    MinDeltaDetector det(8);
    det.onMiss(0x1000);
    EXPECT_FALSE(det.onMiss(0x1000).has_value());
}

TEST(MinDelta, MaxStrideCutoff)
{
    MinDeltaDetector det(8, /*max_stride=*/0x1000);
    det.onMiss(0x1000);
    EXPECT_FALSE(det.onMiss(0x900000).has_value());
    EXPECT_EQ(det.allocations(), 0u);
}

TEST(MinDelta, HistoryIsFifoBounded)
{
    MinDeltaDetector det(2, 1 << 20);
    det.onMiss(0x1000);
    det.onMiss(0x50000);
    det.onMiss(0x90000); // Evicts 0x1000.
    // The nearest remaining entry to 0x2000 is 0x50000.
    auto alloc = det.onMiss(0x2000);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->stride, 0x2000 - 0x50000);
}

TEST(MinDelta, AddressesFarApartTakeTheDeltaModulo2To64)
{
    // Exactly 2^63 apart: the delta's magnitude is 2^63 either way.
    // Beyond the default cutoff it allocates nothing; with no cutoff
    // it allocates the one stride of that magnitude, INT64_MIN.
    const Addr low = 0x10;
    const Addr high = 0x8000000000000010ull;
    MinDeltaDetector det(8);
    det.onMiss(low);
    EXPECT_FALSE(det.onMiss(high).has_value());
    EXPECT_FALSE(det.onMiss(low).has_value());
    MinDeltaDetector unbounded(8, ~std::uint64_t{0});
    unbounded.onMiss(low);
    auto half = unbounded.onMiss(high);
    ASSERT_TRUE(half.has_value());
    EXPECT_EQ(half->stride, INT64_MIN);

    // Either side of 2^63: as signed integers these two are 2^64 - 32
    // apart, but modulo 2^64 they are 32 bytes apart.
    const Addr below = 0x7ffffffffffffff0ull;
    const Addr above = 0x8000000000000010ull;
    MinDeltaDetector up(8);
    up.onMiss(below);
    auto rising = up.onMiss(above);
    ASSERT_TRUE(rising.has_value());
    EXPECT_EQ(rising->startAddr, above);
    EXPECT_EQ(rising->stride, 0x20);
    MinDeltaDetector down(8);
    down.onMiss(above);
    auto falling = down.onMiss(below);
    ASSERT_TRUE(falling.has_value());
    EXPECT_EQ(falling->startAddr, below);
    EXPECT_EQ(falling->stride, -0x20);
}

TEST(MinDelta, StatsCount)
{
    MinDeltaDetector det(8);
    det.onMiss(0x1000);
    det.onMiss(0x2000);
    EXPECT_EQ(det.lookups(), 2u);
    EXPECT_EQ(det.allocations(), 1u);
}

TEST(MinDelta, ResetForgets)
{
    MinDeltaDetector det(8);
    det.onMiss(0x1000);
    det.reset();
    EXPECT_FALSE(det.onMiss(0x1400).has_value());
}

TEST(MinDeltaDeath, NeedsEntries)
{
    EXPECT_DEATH(MinDeltaDetector(0), "entries");
}
