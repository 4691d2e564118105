/** @file Tests for the stream reallocation policy ablation knob. */

#include <gtest/gtest.h>

#include <set>

#include "stream/stream_set.hh"

using namespace sbsim;

namespace {

constexpr std::uint32_t kBlock = 32;

/** The stream an allocation took, and what its flush discarded. */
struct Alloc
{
    std::uint32_t stream = 0;
    StreamFlush flushed;
};

Alloc
allocate(StreamSet &set, Addr miss, std::int64_t stride,
         std::uint64_t now)
{
    Alloc a;
    a.stream = set.allocate(miss, stride, now, a.flushed);
    return a;
}

} // namespace

TEST(StreamReplacement, Names)
{
    EXPECT_STREQ(toString(StreamReplacement::LRU), "lru");
    EXPECT_STREQ(toString(StreamReplacement::FIFO), "fifo");
    EXPECT_STREQ(toString(StreamReplacement::RANDOM), "random");
}

TEST(StreamReplacement, FifoRotatesThroughStreams)
{
    StreamSet set(3, 2, kBlock, StreamReplacement::FIFO);
    // Fill all three.
    auto a0 = allocate(set, 0x1000, kBlock, 0);
    auto a1 = allocate(set, 0x2000, kBlock, 1);
    auto a2 = allocate(set, 0x3000, kBlock, 2);
    // Hitting stream a0 must NOT protect it under FIFO.
    ASSERT_TRUE(set.lookup(0x1020, 3).hit);
    auto a3 = allocate(set, 0x4000, kBlock, 4);
    auto a4 = allocate(set, 0x5000, kBlock, 5);
    auto a5 = allocate(set, 0x6000, kBlock, 6);
    // Rotation covers all three streams exactly once.
    std::set<std::uint32_t> victims = {a3.stream, a4.stream, a5.stream};
    EXPECT_EQ(victims.size(), 3u);
    (void)a0;
    (void)a1;
    (void)a2;
}

TEST(StreamReplacement, LruProtectsHitStreams)
{
    StreamSet set(3, 2, kBlock, StreamReplacement::LRU);
    auto a0 = allocate(set, 0x1000, kBlock, 0);
    allocate(set, 0x2000, kBlock, 1);
    allocate(set, 0x3000, kBlock, 2);
    ASSERT_TRUE(set.lookup(0x1020, 3).hit); // a0 now MRU.
    auto a3 = allocate(set, 0x4000, kBlock, 4);
    EXPECT_NE(a3.stream, a0.stream);
    auto a4 = allocate(set, 0x5000, kBlock, 5);
    EXPECT_NE(a4.stream, a0.stream);
    // a0 still alive.
    EXPECT_TRUE(set.lookup(0x1040, 6).hit);
}

TEST(StreamReplacement, RandomVictimsAreValidAndVaried)
{
    StreamSet set(4, 2, kBlock, StreamReplacement::RANDOM);
    for (int i = 0; i < 4; ++i)
        allocate(set, 0x1000 * (i + 1), kBlock, i);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 64; ++i) {
        auto a = allocate(set, 0x100000 + i * 0x1000, kBlock, 10 + i);
        ASSERT_LT(a.stream, 4u);
        seen.insert(a.stream);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(StreamReplacement, InactiveStreamsAlwaysPreferred)
{
    for (StreamReplacement repl :
         {StreamReplacement::LRU, StreamReplacement::FIFO,
          StreamReplacement::RANDOM}) {
        StreamSet set(3, 2, kBlock, repl);
        auto a0 = allocate(set, 0x1000, kBlock, 0);
        auto a1 = allocate(set, 0x2000, kBlock, 1);
        // Third allocation must take the untouched third stream.
        auto a2 = allocate(set, 0x3000, kBlock, 2);
        EXPECT_NE(a2.stream, a0.stream) << toString(repl);
        EXPECT_NE(a2.stream, a1.stream) << toString(repl);
        EXPECT_FALSE(a2.flushed.wasActive) << toString(repl);
    }
}
