/**
 * @file
 * Concurrency stress for the TraceCache registry, exercising the lock
 * contract the thread-safety annotations document (trace_cache.hh):
 * many threads hammering getOrMaterializeTrace/getOrRecord over
 * identical *and* distinct keys, interleaved with lookups and stats
 * snapshots, then weak-pointer eviction and re-materialization. Runs
 * in the sweep test binary so the `tsan` CTest label picks it up;
 * under -fsanitize=thread this is the dynamic check backing the
 * static SBSIM_GUARDED_BY wall.
 *
 * The load-bearing assertions: every thread adopts the same copy per
 * key (first-writer-wins), and refTracesMaterialized counts exactly
 * one materialization per distinct key no matter how many producers
 * raced on it. The last test replays one shared MissTrace from two
 * threads, as concurrent replay jobs do.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "trace/materialized_trace.hh"
#include "trace/miss_trace.hh"
#include "trace/trace_cache.hh"

using namespace sbsim;

namespace {

constexpr int kThreads = 8;
constexpr std::size_t kKeys = 16;

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
patternTrace(std::size_t n)
{
    VectorSource src(patternRefs(n));
    return MaterializedTrace::fromSource(src);
}

std::string
refKey(std::size_t k)
{
    return "stress-ref-" + std::to_string(k);
}

/** Per-key trace length, so content identifies the key. */
std::size_t
refLen(std::size_t k)
{
    return 64 + 8 * k;
}

} // namespace

TEST(TraceCacheStress, ParallelGetOverSharedAndDistinctKeys)
{
    TraceCache &cache = TraceCache::instance();
    cache.clear();

    // Each thread fetches every key once, starting from a different
    // offset, so at any moment several threads contend on the same
    // key while others work distinct ones. Strong references are held
    // in `got` until the end, so no entry can be evicted mid-test.
    std::atomic<int> builds{0};
    std::vector<std::vector<std::shared_ptr<const MaterializedTrace>>>
        got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        got[t].resize(kKeys);
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kKeys; ++i) {
                std::size_t k = (i + static_cast<std::size_t>(t)) % kKeys;
                got[t][k] =
                    cache.getOrMaterializeTrace(refKey(k), [&, k] {
                        ++builds;
                        return patternTrace(refLen(k));
                    });
                // Interleave the read-only entry points with the
                // populating ones; tsan watches the whole mix.
                if (i % 3 == 0)
                    cache.peek<MaterializedTrace>(refKey(k));
                if (i % 5 == 0)
                    cache.stats();
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    // Every producer ran at least once per key; extra racing builds
    // are legal (losers discard), but exactly one copy per key won
    // and every thread adopted it.
    EXPECT_GE(builds.load(), static_cast<int>(kKeys));
    for (std::size_t k = 0; k < kKeys; ++k) {
        ASSERT_TRUE(got[0][k]) << refKey(k);
        EXPECT_EQ(got[0][k]->size(), refLen(k)) << refKey(k);
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(got[t][k].get(), got[0][k].get())
                << refKey(k) << " thread " << t;
    }

    // Single materialization per distinct key, however many producers
    // raced; everyone else was a hit.
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.refTracesMaterialized, kKeys);
    EXPECT_EQ(stats.refTraceHits + stats.refTracesMaterialized,
              static_cast<std::uint64_t>(kThreads) * kKeys);

    cache.clear();
}

TEST(TraceCacheStress, EvictionAndRematerializationUnderThreads)
{
    TraceCache &cache = TraceCache::instance();
    cache.clear();

    // Populate, then drop every strong reference: the weak entries
    // expire and the registry must report the keys gone.
    for (std::size_t k = 0; k < kKeys; ++k) {
        cache.getOrMaterializeTrace(refKey(k), [&, k] {
            return patternTrace(refLen(k));
        });
    }
    EXPECT_EQ(cache.stats().refTracesMaterialized, kKeys);
    EXPECT_EQ(cache.stats().residentBytes, 0u);
    for (std::size_t k = 0; k < kKeys; ++k)
        EXPECT_EQ(cache.peek<MaterializedTrace>(refKey(k)), nullptr)
            << refKey(k);

    // Re-fetch the expired keys from many threads at once: each key
    // is materialized exactly once more, and all threads again agree
    // on the copy.
    std::vector<std::vector<std::shared_ptr<const MaterializedTrace>>>
        got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        got[t].resize(kKeys);
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kKeys; ++i) {
                std::size_t k =
                    (kKeys - 1 - i + static_cast<std::size_t>(t)) % kKeys;
                got[t][k] =
                    cache.getOrMaterializeTrace(refKey(k), [&, k] {
                        return patternTrace(refLen(k));
                    });
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (std::size_t k = 0; k < kKeys; ++k)
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(got[t][k].get(), got[0][k].get())
                << refKey(k) << " thread " << t;
    EXPECT_EQ(cache.stats().refTracesMaterialized, 2 * kKeys);
    EXPECT_GT(cache.stats().residentBytes, 0u);

    cache.clear();
}

TEST(TraceCacheStress, GenerationsOfDropAndRematerializeStayBounded)
{
    // The long-running-service lifecycle: working sets are built,
    // used, and fully released, over and over. The store's map must
    // stay bounded by the *live* set: without the purge, every
    // retired generation would leave kKeys dead keys per kind behind,
    // which is exactly the unbounded growth a daemon cannot afford.
    TraceCache &cache = TraceCache::instance();
    cache.clear();

    constexpr int kGenerations = 4;
    for (int gen = 1; gen <= kGenerations; ++gen) {
        std::vector<
            std::vector<std::shared_ptr<const MaterializedTrace>>>
            refs(kThreads);
        std::vector<std::vector<std::shared_ptr<const MissTrace>>>
            misses(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            refs[t].resize(kKeys);
            misses[t].resize(kKeys);
            threads.emplace_back([&, t] {
                for (std::size_t i = 0; i < kKeys; ++i) {
                    std::size_t k =
                        (i + static_cast<std::size_t>(t)) % kKeys;
                    refs[t][k] =
                        cache.getOrMaterializeTrace(refKey(k), [&, k] {
                            return patternTrace(refLen(k));
                        });
                    misses[t][k] = cache.getOrRecord(
                        "gen-miss-" + std::to_string(k), [k] {
                            MissTrace trace;
                            trace.append(MissRecord::Kind::DEMAND,
                                         makeLoad(0x1000 + 64 * k), 3,
                                         0, 0);
                            return trace;
                        });
                }
            });
        }
        for (std::thread &th : threads)
            th.join();

        // Within a generation, first-writer-wins means one shared
        // copy per key across every thread.
        for (std::size_t k = 0; k < kKeys; ++k) {
            for (int t = 1; t < kThreads; ++t) {
                EXPECT_EQ(refs[t][k].get(), refs[0][k].get())
                    << "gen " << gen << " ref key " << k;
                EXPECT_EQ(misses[t][k].get(), misses[0][k].get())
                    << "gen " << gen << " miss key " << k;
            }
        }

        // While the working set is live, the maps hold exactly it.
        TraceCacheStats live = cache.stats();
        EXPECT_EQ(live.refTraceEntries, kKeys) << "gen " << gen;
        EXPECT_EQ(live.missTraceEntries, kKeys) << "gen " << gen;
        EXPECT_GT(live.residentBytes, 0u) << "gen " << gen;

        // Retire the generation: every strong reference drops, and
        // the next stats() purge must erase every key — the maps
        // are bounded by the live set, not by history.
        refs.clear();
        misses.clear();
        TraceCacheStats dead = cache.stats();
        EXPECT_EQ(dead.refTraceEntries, 0u) << "gen " << gen;
        EXPECT_EQ(dead.missTraceEntries, 0u) << "gen " << gen;
        EXPECT_EQ(dead.residentBytes, 0u) << "gen " << gen;
        EXPECT_EQ(dead.expiredPurged,
                  static_cast<std::uint64_t>(gen) * 2 * kKeys)
            << "gen " << gen;
        EXPECT_EQ(dead.refTracesMaterialized,
                  static_cast<std::uint64_t>(gen) * kKeys);
    }

    cache.clear();
}

TEST(TraceCacheStress, ParallelMissTraceRecordingIsSingleWriter)
{
    TraceCache &cache = TraceCache::instance();
    cache.clear();

    std::vector<std::vector<std::shared_ptr<const MissTrace>>>
        got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        got[t].resize(kKeys);
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kKeys; ++i) {
                std::size_t k = (i + static_cast<std::size_t>(t)) % kKeys;
                std::string key = "stress-miss-" + std::to_string(k);
                got[t][k] = cache.getOrRecord(key, [k] {
                    MissTrace trace;
                    trace.append(MissRecord::Kind::DEMAND,
                                 makeLoad(0x1000 + 64 * k), 3, 0, 0);
                    trace.summary().counts.dataRefs = k + 1;
                    return trace;
                });
                if (i % 4 == 0)
                    cache.peek<MissTrace>(key);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (std::size_t k = 0; k < kKeys; ++k) {
        ASSERT_TRUE(got[0][k]) << k;
        EXPECT_EQ(got[0][k]->summary().counts.dataRefs, k + 1) << k;
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(got[t][k].get(), got[0][k].get())
                << "miss key " << k << " thread " << t;
    }
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.missTracesRecorded, kKeys);
    EXPECT_EQ(stats.missTraceHits + stats.missTracesRecorded,
              static_cast<std::uint64_t>(kThreads) * kKeys);

    cache.clear();
}

TEST(TraceCacheStress, ConcurrentReplaysOfOneTraceSeeEveryEscapedRecord)
{
    // Replay jobs share one const MissTrace. Escaped records keep their
    // deltas in a side table that forEach reads with a cursor of its
    // own, so concurrent readers must each see the full sequence.
    constexpr std::size_t kRecords = MissTrace::kChunkRecords + 100;
    auto l1Delta = [](std::size_t i) -> std::uint64_t {
        return i % 3 == 0 ? (std::uint64_t{1} << 40) + i : i;
    };
    auto swDelta = [](std::size_t i) -> std::uint64_t {
        return i % 5 == 0 ? i : 0;
    };
    MissTrace built;
    for (std::size_t i = 0; i < kRecords; ++i) {
        built.append(MissRecord::Kind::DEMAND, makeLoad(64 * i),
                     l1Delta(i), i % 7, swDelta(i));
    }
    built.shrink();
    auto trace = std::make_shared<const MissTrace>(std::move(built));

    constexpr int kReaders = 2;
    constexpr int kPasses = 4;
    std::atomic<int> ready{0};
    std::vector<std::size_t> seen(kReaders, 0);
    std::vector<std::size_t> wrong(kReaders, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kReaders; ++t) {
        threads.emplace_back([&, t] {
            ++ready;
            while (ready.load() < kReaders) {
            }
            for (int pass = 0; pass < kPasses; ++pass) {
                std::size_t i = 0;
                trace->forEach([&](const MissRecord &rec) {
                    wrong[t] += rec.access.addr != 64 * i ||
                                rec.dL1HitCycles != l1Delta(i) ||
                                rec.dVictimHitCycles != i % 7 ||
                                rec.dSwPrefetchCycles != swDelta(i);
                    ++i;
                });
                seen[t] += i;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (int t = 0; t < kReaders; ++t) {
        EXPECT_EQ(seen[t], kPasses * kRecords) << "reader " << t;
        EXPECT_EQ(wrong[t], 0u) << "reader " << t;
    }
}
