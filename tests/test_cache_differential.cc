/**
 * @file
 * Differential testing of the cache model: random reference streams
 * are run through the Cache and through a simple, obviously-correct
 * reference model (per-set vectors with explicit LRU order); every
 * hit/miss decision and write-back must agree.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "cache/cache.hh"
#include "util/random.hh"

using namespace sbsim;

namespace {

/** Obviously-correct set-associative LRU write-back model. */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t size, std::uint32_t assoc,
                   std::uint32_t block)
        : assoc_(assoc),
          block_(block),
          numSets_(static_cast<std::uint32_t>(size / (assoc * block)))
    {}

    struct Outcome
    {
        bool hit;
        bool writeback;
        Addr writebackAddr;
        bool victimEvicted = false;
        Addr victimAddr = 0;
    };

    Outcome
    access(Addr a, bool is_write)
    {
        Outcome out{false, false, 0};
        std::uint64_t block_num = a / block_;
        auto &lru = sets_[setOf(block_num)]; // Front = MRU.
        for (auto it = lru.begin(); it != lru.end(); ++it) {
            if (it->blockNum == block_num) {
                Line line = *it;
                line.dirty |= is_write;
                lru.erase(it);
                lru.push_front(line);
                out.hit = true;
                return out;
            }
        }
        evictIfFull(lru, out);
        lru.push_front({block_num, is_write});
        return out;
    }

    /** Cache::fill: a present block only gains dirtiness (its
     *  recency is not touched); a missing one is inserted as MRU. */
    Outcome
    fill(Addr a, bool dirty)
    {
        Outcome out{false, false, 0};
        std::uint64_t block_num = a / block_;
        auto &lru = sets_[setOf(block_num)];
        for (Line &line : lru) {
            if (line.blockNum == block_num) {
                line.dirty |= dirty;
                out.hit = true;
                return out;
            }
        }
        evictIfFull(lru, out);
        lru.push_front({block_num, dirty});
        return out;
    }

    bool
    probe(Addr a) const
    {
        std::uint64_t block_num = a / block_;
        auto it = sets_.find(setOf(block_num));
        if (it == sets_.end())
            return false;
        for (const Line &line : it->second)
            if (line.blockNum == block_num)
                return true;
        return false;
    }

    bool
    invalidate(Addr a)
    {
        std::uint64_t block_num = a / block_;
        auto &lru = sets_[setOf(block_num)];
        for (auto it = lru.begin(); it != lru.end(); ++it) {
            if (it->blockNum == block_num) {
                lru.erase(it);
                return true;
            }
        }
        return false;
    }

    std::uint64_t
    residentBlocks() const
    {
        std::uint64_t n = 0;
        for (const auto &entry : sets_)
            n += entry.second.size();
        return n;
    }

    void reset() { sets_.clear(); }

  private:
    struct Line
    {
        std::uint64_t blockNum;
        bool dirty;
    };

    std::uint32_t
    setOf(std::uint64_t block_num) const
    {
        return static_cast<std::uint32_t>(block_num % numSets_);
    }

    /** Miss: evict the LRU line if the set is full. */
    void
    evictIfFull(std::list<Line> &lru, Outcome &out)
    {
        if (lru.size() < assoc_)
            return;
        Line victim = lru.back();
        lru.pop_back();
        out.victimEvicted = true;
        out.victimAddr = victim.blockNum * block_;
        if (victim.dirty) {
            out.writeback = true;
            out.writebackAddr = victim.blockNum * block_;
        }
    }

    std::uint32_t assoc_;
    std::uint32_t block_;
    std::uint32_t numSets_;
    std::map<std::uint32_t, std::list<Line>> sets_;
};

struct DiffGeom
{
    std::uint64_t size;
    std::uint32_t assoc;
    std::uint32_t block;
    std::uint64_t region;
};

class CacheDifferential : public ::testing::TestWithParam<DiffGeom>
{};

} // namespace

TEST_P(CacheDifferential, AgreesWithReferenceModelOnRandomStream)
{
    auto [size, assoc, block, region] = GetParam();
    CacheConfig config;
    config.sizeBytes = size;
    config.assoc = assoc;
    config.blockSize = block;
    config.replacement = ReplacementKind::LRU;
    Cache cache(config);
    ReferenceCache ref(size, assoc, block);

    Pcg32 rng(0xd1ffe4);
    for (int i = 0; i < 20000; ++i) {
        Addr a = rng.below(static_cast<std::uint32_t>(region));
        bool is_write = rng.below(4) == 0;
        MemAccess access = is_write ? makeStore(a) : makeLoad(a);
        CacheResult got = cache.access(access);
        ReferenceCache::Outcome want = ref.access(a, is_write);
        ASSERT_EQ(got.hit, want.hit) << "ref " << i << " addr " << a;
        ASSERT_EQ(got.writeback, want.writeback)
            << "ref " << i << " addr " << a;
        if (want.writeback) {
            ASSERT_EQ(got.writebackAddr, want.writebackAddr)
                << "ref " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(DiffGeom{1024, 1, 32, 8192},
                      DiffGeom{1024, 2, 32, 8192},
                      DiffGeom{2048, 4, 32, 4096},
                      DiffGeom{4096, 2, 64, 32768},
                      DiffGeom{8192, 8, 128, 65536},
                      DiffGeom{1024, 32, 32, 4096})); // Fully assoc.

/**
 * The tag store must be exact for every geometry CacheConfig accepts,
 * down to 1-byte blocks in a single set, where a tag is the whole
 * address and can be all ones. Addresses crowd both ends of the
 * address space; every operation's outcome, the victim and write-back
 * addresses and the resident count must match the reference.
 */
class CacheTagExtremes : public ::testing::TestWithParam<DiffGeom>
{};

TEST_P(CacheTagExtremes, AgreesWithReferenceModelNearZeroAndAllOnes)
{
    auto [size, assoc, block, region] = GetParam();
    CacheConfig config;
    config.sizeBytes = size;
    config.assoc = assoc;
    config.blockSize = block;
    config.replacement = ReplacementKind::LRU;
    Cache cache(config);
    ReferenceCache ref(size, assoc, block);

    Pcg32 rng(0x7a65);
    auto pick = [&]() -> Addr {
        switch (rng.below(8)) {
          case 0:
            return 0;
          case 1:
            return ~Addr{0};
          default: {
            Addr off = rng.below(static_cast<std::uint32_t>(region));
            return rng.below(2) ? off : ~Addr{0} - off;
          }
        }
    };
    auto expect_same = [](const CacheResult &got,
                          const ReferenceCache::Outcome &want, int i) {
        ASSERT_EQ(got.hit, want.hit) << "op " << i;
        ASSERT_EQ(got.victimEvicted, want.victimEvicted) << "op " << i;
        if (want.victimEvicted) {
            ASSERT_EQ(got.victimAddr, want.victimAddr) << "op " << i;
        }
        ASSERT_EQ(got.writeback, want.writeback) << "op " << i;
        if (want.writeback) {
            ASSERT_EQ(got.writebackAddr, want.writebackAddr) << "op " << i;
        }
    };
    for (int i = 0; i < 20000; ++i) {
        Addr a = pick();
        std::uint32_t op = rng.below(20);
        if (op < 12) {
            bool is_write = op < 4;
            CacheResult got =
                cache.access(is_write ? makeStore(a) : makeLoad(a));
            expect_same(got, ref.access(a, is_write), i);
        } else if (op < 15) {
            bool dirty = op == 12;
            expect_same(cache.fill(a, dirty), ref.fill(a, dirty), i);
        } else if (op < 17) {
            ASSERT_EQ(cache.invalidate(a), ref.invalidate(a)) << "op " << i;
        } else if (op < 19 || rng.below(64) != 0) {
            ASSERT_EQ(cache.probe(a), ref.probe(a)) << "op " << i;
        } else {
            cache.reset();
            ref.reset();
        }
        ASSERT_EQ(cache.residentBlocks(), ref.residentBlocks())
            << "op " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AcceptedGeometries, CacheTagExtremes,
    ::testing::Values(DiffGeom{1, 1, 1, 4},      // 1-byte, one way.
                      DiffGeom{2, 2, 1, 6},      // 1-byte, one set.
                      DiffGeom{17, 17, 1, 40},   // > 16 ways, one set.
                      DiffGeom{8, 2, 1, 24},     // 1-byte, 4 sets.
                      DiffGeom{64, 1, 64, 512},  // one big block.
                      DiffGeom{12288, 3, 4096, 1 << 16},
                      DiffGeom{1024, 4, 32, 8192}));
