/**
 * @file
 * Unit tests for the stream set. The StreamBuffer suites drive a
 * one-stream set, i.e. a single stream buffer FIFO (Jouppi's Figure
 * 2); the StreamSet suites cover the bank: parallel head comparison,
 * victim choice and invalidation across streams.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "stream/stream_set.hh"

using namespace sbsim;

namespace {

constexpr std::uint32_t kBlock = 32;

/** One allocation's outcome, with the issue buffer copied out. */
struct Alloc
{
    std::uint32_t stream = 0;
    StreamFlush flushed;
    std::vector<BlockAddr> issued;
};

Alloc
allocate(StreamSet &set, Addr miss, std::int64_t stride,
         std::uint64_t now = 0)
{
    Alloc a;
    a.stream = set.allocate(miss, stride, now, a.flushed);
    a.issued.assign(set.issued().begin(), set.issued().end());
    return a;
}

} // namespace

TEST(StreamBuffer, AllocateIssuesDepthPrefetches)
{
    StreamSet sb(1, 2, kBlock);
    auto issued = allocate(sb, 0x1000, kBlock).issued;
    ASSERT_EQ(issued.size(), 2u);
    EXPECT_EQ(issued[0], 0x1020u); // miss + stride
    EXPECT_EQ(issued[1], 0x1040u);
    EXPECT_TRUE(sb.active(0));
    EXPECT_EQ(sb.stride(0), kBlock);
}

TEST(StreamBuffer, DeeperBuffersIssueMore)
{
    StreamSet sb(1, 4, kBlock);
    auto issued = allocate(sb, 0, kBlock).issued;
    ASSERT_EQ(issued.size(), 4u);
    EXPECT_EQ(issued[3], 4u * kBlock);
}

TEST(StreamBuffer, OnlyHeadMatches)
{
    StreamSet sb(1, 2, kBlock);
    allocate(sb, 0x1000, kBlock);
    EXPECT_EQ(sb.matchHead(0x1020), 0);
    EXPECT_EQ(sb.matchHead(0x103f), 0);  // Any byte of the head block.
    EXPECT_EQ(sb.matchHead(0x1040), -1); // Second entry: not the head.
    EXPECT_EQ(sb.matchHead(0x1000), -1); // The original miss target.
    EXPECT_FALSE(sb.lookup(0x1040, 1).hit);
}

TEST(StreamBuffer, ConsumeAdvancesAndRefills)
{
    StreamSet sb(1, 2, kBlock);
    allocate(sb, 0x1000, kBlock);
    StreamLookup c = sb.lookup(0x1020, /*now=*/5);
    ASSERT_TRUE(c.hit);
    EXPECT_EQ(c.stream, 0u);
    EXPECT_EQ(sb.entryPosition(0, 0x1020), -1); // Consumed.
    ASSERT_EQ(sb.issued().size(), 1u);
    EXPECT_EQ(sb.issued()[0], 0x1060u); // FIFO stays full.
    EXPECT_EQ(sb.matchHead(0x1040), 0); // New head.
    EXPECT_EQ(sb.hitRun(0), 1u);
}

TEST(StreamBuffer, LongRunStaysSequential)
{
    StreamSet sb(1, 2, kBlock);
    allocate(sb, 0, kBlock);
    for (std::uint32_t i = 1; i <= 100; ++i) {
        ASSERT_EQ(sb.matchHead(i * kBlock), 0) << i;
        ASSERT_TRUE(sb.lookup(i * kBlock, i).hit) << i;
    }
    EXPECT_EQ(sb.hitRun(0), 100u);
}

TEST(StreamBuffer, NonUnitStrideFollowsStride)
{
    StreamSet sb(1, 2, kBlock);
    auto issued = allocate(sb, 0x10000, 1024).issued;
    EXPECT_EQ(issued[0], 0x10400u);
    EXPECT_EQ(issued[1], 0x10800u);
    EXPECT_EQ(sb.matchHead(0x10400), 0);
    ASSERT_TRUE(sb.lookup(0x10400, 0).hit);
    EXPECT_EQ(sb.matchHead(0x10800), 0);
}

TEST(StreamBuffer, NegativeStrideWalksBackwards)
{
    StreamSet sb(1, 2, kBlock);
    auto issued =
        allocate(sb, 0x10000, -static_cast<std::int64_t>(kBlock)).issued;
    EXPECT_EQ(issued[0], 0x10000u - kBlock);
    EXPECT_EQ(issued[1], 0x10000u - 2 * kBlock);
}

TEST(StreamBuffer, SubBlockStrideDeduplicatesBlocks)
{
    // Stride of 8 bytes: prefetched entries must still be distinct
    // blocks.
    StreamSet sb(1, 2, kBlock);
    auto issued = allocate(sb, 0x1000, 8).issued;
    ASSERT_EQ(issued.size(), 2u);
    EXPECT_EQ(issued[0], 0x1020u);
    EXPECT_EQ(issued[1], 0x1040u);
}

TEST(StreamBuffer, ReallocationFlushReportsUseless)
{
    StreamSet sb(1, 2, kBlock);
    allocate(sb, 0x1000, kBlock);
    ASSERT_TRUE(sb.lookup(0x1020, 0).hit); // One hit; FIFO refilled.
    StreamFlush flushed = allocate(sb, 0x90000, kBlock, 1).flushed;
    EXPECT_TRUE(flushed.wasActive);
    EXPECT_EQ(flushed.uselessPrefetches, 2u);
    EXPECT_EQ(flushed.hitRun, 1u);
}

TEST(StreamBuffer, InvalidateMarksEntriesUseless)
{
    StreamSet sb(1, 2, kBlock);
    allocate(sb, 0x1000, kBlock);
    EXPECT_EQ(sb.invalidate(0x1020), 1u);
    EXPECT_EQ(sb.invalidate(0x1020), 0u); // Already invalid.
    EXPECT_EQ(sb.matchHead(0x1020), -1);
    // The invalidated head no longer counts as useless at drain.
    StreamFlush drained = sb.drain(0);
    EXPECT_EQ(drained.uselessPrefetches, 1u); // Only the tail.
}

TEST(StreamBuffer, InvalidateMidEntryBlocksLaterHit)
{
    StreamSet sb(1, 2, kBlock);
    allocate(sb, 0x1000, kBlock);
    EXPECT_EQ(sb.invalidate(0x1040), 1u); // Second entry.
    EXPECT_EQ(sb.matchHead(0x1020), 0);
    ASSERT_TRUE(sb.lookup(0x1020, 0).hit);
    // New head is the invalidated entry: no match, and the stream
    // stays dead until it is reallocated.
    EXPECT_EQ(sb.matchHead(0x1040), -1);
    EXPECT_FALSE(sb.lookup(0x1040, 1).hit);
    EXPECT_FALSE(sb.lookup(0x1060, 2).hit);
}

TEST(StreamBuffer, DrainDeactivates)
{
    StreamSet sb(1, 2, kBlock);
    allocate(sb, 0x1000, kBlock);
    StreamFlush f = sb.drain(0);
    EXPECT_TRUE(f.wasActive);
    EXPECT_EQ(f.uselessPrefetches, 2u);
    EXPECT_FALSE(sb.active(0));
    EXPECT_EQ(sb.matchHead(0x1020), -1);
    StreamFlush again = sb.drain(0);
    EXPECT_FALSE(again.wasActive);
}

TEST(StreamBuffer, IssueTickPropagatesToConsume)
{
    StreamSet sb(1, 2, kBlock);
    allocate(sb, 0x1000, kBlock, /*now=*/100);
    StreamLookup c = sb.lookup(0x1020, /*now=*/150);
    ASSERT_TRUE(c.hit);
    EXPECT_EQ(c.issueTick, 100u);
}

TEST(StreamBufferDeath, ZeroStride)
{
    StreamSet sb(1, 2, kBlock);
    StreamFlush flushed;
    EXPECT_DEATH(sb.allocate(0x1000, 0, 0, flushed), "stride");
}

TEST(StreamBufferDeath, ZeroDepth)
{
    EXPECT_DEATH(StreamSet(1, 0, kBlock), "depth");
}

/** Property: for any depth, a sequential run never misses after
 *  allocation and the FIFO always refills. */
class StreamDepthProperty : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(StreamDepthProperty, SequentialRunAlwaysHits)
{
    std::uint32_t depth = GetParam();
    StreamSet sb(1, depth, kBlock);
    EXPECT_EQ(allocate(sb, 0, kBlock).issued.size(), depth);
    for (std::uint32_t i = 1; i <= 3 * depth + 5; ++i) {
        ASSERT_EQ(sb.matchHead(i * kBlock), 0);
        ASSERT_TRUE(sb.lookup(i * kBlock, i).hit);
        EXPECT_EQ(sb.issued().size(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, StreamDepthProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

TEST(StreamBuffer, ProbeAnyFindsNonHeadEntries)
{
    StreamSet sb(1, 4, kBlock);
    allocate(sb, 0x1000, kBlock);
    EXPECT_EQ(sb.entryPosition(0, 0x1020), 0);
    EXPECT_EQ(sb.entryPosition(0, 0x1040), 1);
    EXPECT_EQ(sb.entryPosition(0, 0x1080), 3);
    EXPECT_EQ(sb.entryPosition(0, 0x10a0), -1); // Beyond the FIFO.
    EXPECT_EQ(sb.entryPosition(0, 0x1000), -1); // The original miss target.
}

TEST(StreamBuffer, ConsumeAtSkipsAndRefills)
{
    StreamSet sb(1, 4, kBlock);
    allocate(sb, 0x1000, kBlock);
    // Entries are [0x1020, 0x1040, 0x1060, 0x1080]; hit position 2.
    StreamLookup c = sb.lookup(0x1060, /*now=*/7, /*associative=*/true);
    ASSERT_TRUE(c.hit);
    EXPECT_EQ(sb.entryPosition(0, 0x1060), -1); // Consumed.
    EXPECT_EQ(c.skipped, 2u); // 0x1020 and 0x1040 were bypassed.
    // FIFO refilled to full depth: 3 new prefetches in total.
    ASSERT_EQ(sb.issued().size(), 3u);
    EXPECT_EQ(sb.issued()[0], 0x10a0u);
    EXPECT_EQ(sb.issued()[2], 0x10e0u);
    // New head continues past the hit.
    EXPECT_EQ(sb.matchHead(0x1080), 0);
    EXPECT_EQ(sb.hitRun(0), 1u);
}

TEST(StreamBuffer, ConsumeAtZeroEqualsConsumeHead)
{
    StreamSet sb(1, 2, kBlock);
    allocate(sb, 0x1000, kBlock);
    StreamLookup c = sb.lookup(0x1020, 1, /*associative=*/true);
    ASSERT_TRUE(c.hit);
    EXPECT_EQ(c.skipped, 0u);
    EXPECT_EQ(sb.issued().size(), 1u); // No extra refills.
}

TEST(StreamBuffer, NegativeSubBlockStrideIssuesDistinctBlocks)
{
    StreamSet sb(1, 4, kBlock);
    auto issued = allocate(sb, 0x1010, -8).issued;
    ASSERT_EQ(issued.size(), 4u);
    EXPECT_EQ(issued[0], 0x0fe0u);
    EXPECT_EQ(issued[3], 0x0f80u);
    EXPECT_EQ(std::set<BlockAddr>(issued.begin(), issued.end()).size(),
              4u);
}

TEST(StreamSet, LookupMissesWhenEmpty)
{
    StreamSet set(4, 2, kBlock);
    EXPECT_FALSE(set.lookup(0x1000, 0).hit);
    EXPECT_TRUE(set.issued().empty());
}

TEST(StreamSet, AllocateThenHit)
{
    StreamSet set(4, 2, kBlock);
    Alloc alloc = allocate(set, 0x1000, kBlock, 0);
    EXPECT_EQ(alloc.issued.size(), 2u);
    StreamLookup hit = set.lookup(0x1020, 1);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.stream, alloc.stream);
    EXPECT_EQ(set.entryPosition(alloc.stream, 0x1020), -1);
}

TEST(StreamSet, MultipleStreamsTrackInterleavedSequences)
{
    StreamSet set(4, 2, kBlock);
    allocate(set, 0x1000, kBlock, 0);
    allocate(set, 0x80000, kBlock, 1);
    allocate(set, 0x200000, 1024, 2);
    // Interleaved hits on all three.
    for (int i = 1; i <= 5; ++i) {
        EXPECT_TRUE(
            set.lookup(0x1000 + i * kBlock, 10 + i).hit);
        EXPECT_TRUE(
            set.lookup(0x80000 + i * kBlock, 20 + i).hit);
        EXPECT_TRUE(set.lookup(0x200000 + i * 1024, 30 + i).hit);
    }
}

TEST(StreamSet, InactiveStreamsAllocatedFirst)
{
    StreamSet set(3, 2, kBlock);
    auto a0 = allocate(set, 0x1000, kBlock, 0);
    auto a1 = allocate(set, 0x2000, kBlock, 1);
    auto a2 = allocate(set, 0x3000, kBlock, 2);
    // Three allocations use three distinct streams.
    EXPECT_NE(a0.stream, a1.stream);
    EXPECT_NE(a1.stream, a2.stream);
    EXPECT_NE(a0.stream, a2.stream);
    EXPECT_FALSE(a0.flushed.wasActive);
    EXPECT_FALSE(a1.flushed.wasActive);
    EXPECT_FALSE(a2.flushed.wasActive);
}

TEST(StreamSet, LruVictimIsOldestUntouched)
{
    StreamSet set(2, 2, kBlock);
    auto a0 = allocate(set, 0x1000, kBlock, 0);
    auto a1 = allocate(set, 0x2000, kBlock, 1);
    // Touch stream 0 via a hit: stream 1 becomes LRU.
    ASSERT_TRUE(set.lookup(0x1020, 2).hit);
    auto a2 = allocate(set, 0x3000, kBlock, 3);
    EXPECT_EQ(a2.stream, a1.stream);
    EXPECT_TRUE(a2.flushed.wasActive);
    (void)a0;
}

TEST(StreamSet, ReallocationReportsFlushedRun)
{
    StreamSet set(1, 2, kBlock);
    allocate(set, 0x1000, kBlock, 0);
    set.lookup(0x1020, 1);
    set.lookup(0x1040, 2);
    auto realloc = allocate(set, 0x9000, kBlock, 3);
    EXPECT_EQ(realloc.flushed.hitRun, 2u);
    EXPECT_EQ(realloc.flushed.uselessPrefetches, 2u);
}

TEST(StreamSet, InvalidateHitsEveryStream)
{
    StreamSet set(2, 2, kBlock);
    allocate(set, 0x1000, kBlock, 0);
    // Both streams end up holding block 0x1040 in some entry.
    allocate(set, 0x1020, kBlock, 1);
    EXPECT_EQ(set.invalidate(0x1040), 2u);
}

TEST(StreamSet, DrainAllReportsEveryActiveStream)
{
    StreamSet set(3, 2, kBlock);
    allocate(set, 0x1000, kBlock, 0);
    allocate(set, 0x2000, kBlock, 1);
    std::vector<StreamFlush> flushes;
    for (std::uint32_t i = 0; i < set.numStreams(); ++i)
        flushes.push_back(set.drain(i));
    ASSERT_EQ(flushes.size(), 3u);
    int active = 0;
    std::uint32_t useless = 0;
    for (const auto &f : flushes) {
        if (f.wasActive)
            ++active;
        useless += f.uselessPrefetches;
    }
    EXPECT_EQ(active, 2);
    EXPECT_EQ(useless, 4u);
}

TEST(StreamSet, HitMakesStreamMostRecentlyUsed)
{
    StreamSet set(2, 2, kBlock);
    auto a0 = allocate(set, 0x1000, kBlock, 0);
    auto a1 = allocate(set, 0x2000, kBlock, 1);
    // Hit the older stream (a0): a1 becomes the LRU victim.
    set.lookup(0x1020, 2);
    auto a2 = allocate(set, 0x3000, kBlock, 3);
    EXPECT_EQ(a2.stream, a1.stream);
    // a0's stream still hits.
    EXPECT_TRUE(set.lookup(0x1040, 4).hit);
    (void)a0;
}

TEST(StreamSet, LowestIndexStreamWinsDuplicateHeads)
{
    StreamSet set(3, 2, kBlock);
    allocate(set, 0x5000, kBlock, 0);       // Stream 0: unrelated.
    auto a1 = allocate(set, 0x1000, kBlock, 1);
    auto a2 = allocate(set, 0x1000, kBlock, 2); // Same head, stream 2.
    ASSERT_EQ(a1.stream, 1u);
    ASSERT_EQ(a2.stream, 2u);
    StreamLookup hit = set.lookup(0x1020, 3);
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(hit.stream, 1u);
    // Stream 2 still holds its copy of the head.
    EXPECT_EQ(set.matchHead(0x1020), 2);
}

TEST(StreamSet, AssociativeLookupSkipsInvalidatedEntries)
{
    StreamSet set(1, 4, kBlock);
    allocate(set, 0x1000, kBlock, 0); // [1020, 1040, 1060, 1080]
    EXPECT_EQ(set.invalidate(0x1040), 1u);
    // The invalidated entry is neither matched nor counted as skipped.
    EXPECT_FALSE(set.lookup(0x1040, 1, /*associative=*/true).hit);
    StreamLookup hit = set.lookup(0x1060, 2, /*associative=*/true);
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(hit.skipped, 1u); // Only 0x1020 was a live bypass.
    EXPECT_EQ(set.issued().size(), 3u);
    EXPECT_EQ(set.matchHead(0x1080), 0);
}

TEST(StreamSet, ResetRestoresConstructedState)
{
    for (StreamReplacement repl :
         {StreamReplacement::LRU, StreamReplacement::FIFO,
          StreamReplacement::RANDOM}) {
        SCOPED_TRACE(toString(repl));
        StreamSet used(3, 2, kBlock, repl);
        for (int i = 0; i < 17; ++i)
            allocate(used, 0x10000 * (i + 1), kBlock, i);
        used.lookup(0x10000 * 17 + kBlock, 20);
        used.reset();
        for (std::uint32_t s = 0; s < used.numStreams(); ++s)
            EXPECT_FALSE(used.active(s));

        StreamSet fresh(3, 2, kBlock, repl);
        for (int i = 0; i < 40; ++i) {
            Addr miss = 0x900000 + 0x1000 * (i % 7);
            std::uint64_t now = 100 + i;
            ASSERT_EQ(allocate(used, miss, kBlock, now).stream,
                      allocate(fresh, miss, kBlock, now).stream)
                << i;
        }
    }
}

TEST(StreamSetDeath, NeedsAtLeastOneStream)
{
    EXPECT_DEATH(StreamSet(0, 2, kBlock), "stream");
}

TEST(StreamSetDeath, RejectsCapacityOverflow)
{
    EXPECT_DEATH(StreamSet(StreamSet::kMaxStreams + 1, 2, kBlock),
                 "streams");
    EXPECT_DEATH(StreamSet(1, StreamSet::kMaxDepth + 1, kBlock), "depth");
}

TEST(StreamSet, FullCapacityBankWorks)
{
    StreamSet set(StreamSet::kMaxStreams, StreamSet::kMaxDepth, kBlock);
    for (std::uint32_t s = 0; s < StreamSet::kMaxStreams; ++s)
        allocate(set, 0x100000 * (s + 1), kBlock, s);
    // The last stream's head matches; the next allocation evicts the
    // LRU stream, which is stream 0.
    EXPECT_EQ(set.matchHead(0x100000 * 64 + kBlock), 63);
    EXPECT_EQ(allocate(set, 0x9000000, kBlock, 100).stream, 0u);
}
