/**
 * @file
 * Tests for the Level-1 trace-reuse layer: SharedTraceView delivery
 * semantics (next / nextBatch / nextSpan interchangeability,
 * exhaustion, reset), concurrent consumers over one shared buffer,
 * and the TraceCache registry (memoisation, first-writer-wins racing,
 * hit counting, weak-reference release). Lives in the sweep test
 * binary so the `tsan` CTest label covers the threaded cases.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "trace/materialized_trace.hh"
#include "trace/trace_cache.hh"

using namespace sbsim;

namespace {

std::vector<MemAccess>
patternRefs(std::size_t n)
{
    std::vector<MemAccess> refs;
    refs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Addr a = static_cast<Addr>(i) * 24 + 0x1000;
        if (i % 3 == 0)
            refs.push_back(makeIfetch(0x400000 + i * 4));
        else if (i % 3 == 1)
            refs.push_back(makeLoad(a));
        else
            refs.push_back(makeStore(a));
    }
    return refs;
}

std::shared_ptr<const MaterializedTrace>
traceOf(std::vector<MemAccess> refs)
{
    VectorSource src(std::move(refs));
    return MaterializedTrace::fromSource(src);
}

std::shared_ptr<const MaterializedTrace>
patternTrace(std::size_t n)
{
    return traceOf(patternRefs(n));
}

/** Drain @p view one reference at a time. */
std::vector<MemAccess>
drainNext(SharedTraceView &view)
{
    std::vector<MemAccess> out;
    MemAccess a;
    while (view.next(a))
        out.push_back(a);
    return out;
}

} // namespace

TEST(SharedTraceView, NextBatchAndSpanDeliverTheSameSequence)
{
    const std::vector<MemAccess> refs = patternRefs(1000);
    auto trace = traceOf(refs);

    SharedTraceView by_next(trace);
    std::vector<MemAccess> got_next = drainNext(by_next);

    // Odd batch size, so the last batch is partial.
    SharedTraceView by_batch(trace);
    std::vector<MemAccess> got_batch;
    MemAccess buf[96];
    std::size_t n;
    while ((n = by_batch.nextBatch(buf, 96)) > 0)
        got_batch.insert(got_batch.end(), buf, buf + n);

    SharedTraceView by_span(trace);
    const MemAccess *span = nullptr;
    std::size_t len =
        by_span.nextSpan(&span, nullptr, by_span.remaining());
    std::vector<MemAccess> got_span(span, span + len);

    EXPECT_EQ(got_next, refs);
    EXPECT_EQ(got_batch, refs);
    EXPECT_EQ(got_span, refs);
}

TEST(SharedTraceView, ExhaustionIsSticky)
{
    SharedTraceView view(patternTrace(10));
    MemAccess a;
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(view.next(a));
    EXPECT_FALSE(view.next(a));
    EXPECT_FALSE(view.next(a));
    EXPECT_EQ(view.nextBatch(&a, 1), 0u);
    const MemAccess *span = nullptr;
    EXPECT_EQ(view.nextSpan(&span, nullptr, view.remaining()), 0u);
    EXPECT_EQ(view.remaining(), 0u);
}

TEST(SharedTraceView, ResetRestartsFromTheBeginning)
{
    const std::vector<MemAccess> refs = patternRefs(64);
    auto trace = traceOf(refs);
    SharedTraceView view(trace);

    MemAccess a;
    for (int i = 0; i < 40; ++i)
        ASSERT_TRUE(view.next(a));
    view.reset();
    EXPECT_EQ(view.remaining(), refs.size());
    EXPECT_EQ(drainNext(view), refs);

    // Reset after a zero-copy drain too.
    const MemAccess *span = nullptr;
    view.reset();
    ASSERT_EQ(view.nextSpan(&span, nullptr, view.remaining()),
              refs.size());
    view.reset();
    EXPECT_EQ(drainNext(view), refs);
}

TEST(SharedTraceView, MixedConsumptionMatchesTheBuffer)
{
    const std::vector<MemAccess> refs = patternRefs(300);
    auto trace = traceOf(refs);
    SharedTraceView view(trace);

    std::vector<MemAccess> got;
    MemAccess a;
    MemAccess buf[17];
    for (int i = 0; i < 5 && view.next(a); ++i)
        got.push_back(a);
    std::size_t n = view.nextBatch(buf, 17);
    got.insert(got.end(), buf, buf + n);
    while (view.next(a))
        got.push_back(a);
    EXPECT_EQ(got, refs);
}

TEST(SharedTraceView, ConcurrentConsumersSeeTheFullSequence)
{
    // Four threads, each with a private view over one shared buffer,
    // draining with different batch shapes concurrently. Every thread
    // must observe exactly the materialised sequence; tsan verifies
    // the sharing is race-free.
    const std::vector<MemAccess> refs = patternRefs(20000);
    auto trace = traceOf(refs);

    std::vector<std::vector<MemAccess>> got(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            SharedTraceView view(trace);
            if (t == 0) {
                got[t] = drainNext(view);
                return;
            }
            if (t == 3) {
                const MemAccess *span = nullptr;
                std::size_t len =
                    view.nextSpan(&span, nullptr, view.remaining());
                got[t].assign(span, span + len);
                return;
            }
            MemAccess buf[256];
            std::size_t want = t == 1 ? 7 : 256; // ragged vs full
            std::size_t n;
            while ((n = view.nextBatch(buf, want)) > 0)
                got[t].insert(got[t].end(), buf, buf + n);
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(got[t], refs) << "consumer " << t;
}

TEST(TraceCache, MemoisesPerKeyAndCountsHits)
{
    TraceCache &cache = TraceCache::instance();
    cache.clear();

    std::atomic<int> builds{0};
    auto make = [&] {
        ++builds;
        return patternTrace(500);
    };

    auto first = cache.getOrMaterializeTrace("k1", make);
    ASSERT_TRUE(first);
    EXPECT_EQ(first->size(), 500u);
    auto second = cache.getOrMaterializeTrace("k1", make);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(builds.load(), 1);

    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.refTracesMaterialized, 1u);
    EXPECT_EQ(stats.refTraceHits, 1u);
    EXPECT_GE(stats.residentBytes, 500 * sizeof(MemAccess));

    // peek does not count a hit.
    EXPECT_EQ(cache.peek<MaterializedTrace>("k1").get(), first.get());
    EXPECT_EQ(cache.peek<MaterializedTrace>("absent"), nullptr);
    EXPECT_EQ(cache.stats().refTraceHits, 1u);

    // Entries are weak: dropping every strong reference releases the
    // trace, and the resident-byte report follows.
    first.reset();
    second.reset();
    EXPECT_EQ(cache.peek<MaterializedTrace>("k1"), nullptr);
    EXPECT_EQ(cache.stats().residentBytes, 0u);

    cache.clear();
}

TEST(TraceCache, ConcurrentMaterialiseIsFirstWriterWins)
{
    TraceCache &cache = TraceCache::instance();
    cache.clear();

    constexpr int kThreads = 8;
    std::atomic<int> builds{0};
    std::vector<std::shared_ptr<const MaterializedTrace>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            got[t] = cache.getOrMaterializeTrace("race", [&] {
                ++builds;
                return patternTrace(256);
            });
        });
    }
    for (std::thread &th : threads)
        th.join();

    // Racing producers may each build, but exactly one copy wins and
    // everyone adopts it.
    EXPECT_GE(builds.load(), 1);
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_TRUE(got[t]) << t;
        EXPECT_EQ(got[t].get(), got[0].get()) << t;
    }
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.refTracesMaterialized, 1u);
    EXPECT_EQ(stats.refTraceHits,
              static_cast<std::uint64_t>(kThreads - 1));

    cache.clear();
}

TEST(TraceCache, RecordsMissTracesOnceAndCountsReplays)
{
    TraceCache &cache = TraceCache::instance();
    cache.clear();

    std::atomic<int> records{0};
    auto record = [&] {
        ++records;
        MissTrace trace;
        trace.append(MissRecord::Kind::DEMAND, makeLoad(0x1000), 3, 0,
                     0);
        trace.summary().counts.dataRefs = 1;
        return trace;
    };

    auto first = cache.getOrRecord("m1", record);
    auto second = cache.getOrRecord("m1", record);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(records.load(), 1);
    EXPECT_EQ(first->size(), 1u);
    EXPECT_EQ(cache.peek<MissTrace>("m1").get(), first.get());
    EXPECT_EQ(cache.peek<MissTrace>("absent"), nullptr);

    cache.noteReplay();
    cache.noteReplay();
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.missTracesRecorded, 1u);
    EXPECT_EQ(stats.missTraceHits, 1u);
    EXPECT_EQ(stats.replays, 2u);
    EXPECT_EQ(stats.residentBytes, first->bytes());

    // clear() empties both maps and zeroes the counters.
    cache.clear();
    EXPECT_EQ(cache.peek<MissTrace>("m1"), nullptr);
    stats = cache.stats();
    EXPECT_EQ(stats.missTracesRecorded, 0u);
    EXPECT_EQ(stats.replays, 0u);
    EXPECT_EQ(stats.residentBytes, 0u);
}
