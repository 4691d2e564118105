/** @file Tests for virtual-to-physical page translation. */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/translation.hh"
#include "sim/memory_system.hh"
#include "trace/source.hh"

using namespace sbsim;

TEST(PageMapper, IdentityPassesThrough)
{
    PageMapper mapper(TranslationMode::IDENTITY);
    for (Addr a : {Addr{0}, Addr{0x1234}, Addr{0xdeadbeef}})
        EXPECT_EQ(mapper.translate(a), a);
}

TEST(PageMapper, ShuffleKeepsPageOffset)
{
    PageMapper mapper(TranslationMode::SHUFFLED, 12);
    for (Addr a : {Addr{0x1000}, Addr{0x1fff}, Addr{0x123456}}) {
        Addr p = mapper.translate(a);
        EXPECT_EQ(p & 0xfff, a & 0xfff) << std::hex << a;
    }
}

TEST(PageMapper, ShuffleIsDeterministic)
{
    PageMapper a(TranslationMode::SHUFFLED, 12, 20, 7);
    PageMapper b(TranslationMode::SHUFFLED, 12, 20, 7);
    for (Addr addr = 0; addr < 0x100000; addr += 0x1000)
        EXPECT_EQ(a.translate(addr), b.translate(addr));
}

TEST(PageMapper, DifferentSeedsDifferentMaps)
{
    PageMapper a(TranslationMode::SHUFFLED, 12, 20, 1);
    PageMapper b(TranslationMode::SHUFFLED, 12, 20, 2);
    int same = 0;
    for (Addr addr = 0; addr < 0x100000; addr += 0x1000)
        if (a.translate(addr) == b.translate(addr))
            ++same;
    EXPECT_LT(same, 8);
}

TEST(PageMapper, ShuffleIsABijection)
{
    // No two virtual pages may share a physical frame.
    PageMapper mapper(TranslationMode::SHUFFLED, 12, 16);
    std::unordered_set<std::uint64_t> frames;
    const std::uint64_t pages = 1 << 16;
    for (std::uint64_t vpn = 0; vpn < pages; ++vpn) {
        Addr p = mapper.translate(vpn << 12);
        EXPECT_TRUE(frames.insert(p >> 12).second)
            << "frame collision at vpn " << vpn;
    }
    EXPECT_EQ(frames.size(), pages);
}

TEST(PageMapper, ShuffleActuallyScatters)
{
    // Consecutive virtual pages rarely stay consecutive physically.
    PageMapper mapper(TranslationMode::SHUFFLED, 12);
    int adjacent = 0;
    for (Addr a = 0; a < 0x400000; a += 0x1000) {
        Addr p0 = mapper.translate(a);
        Addr p1 = mapper.translate(a + 0x1000);
        if (p1 == p0 + 0x1000)
            ++adjacent;
    }
    EXPECT_LT(adjacent, 16);
}

TEST(PageMapper, SubPageStridesSurviveShuffling)
{
    // Within a page, relative structure is untouched: unit-stride
    // runs inside one page stay unit stride.
    PageMapper mapper(TranslationMode::SHUFFLED, 12);
    Addr base = 0x40000;
    Addr p_base = mapper.translate(base);
    for (unsigned off = 0; off < 0x1000; off += 32)
        EXPECT_EQ(mapper.translate(base + off), p_base + off);
}

TEST(PageMapper, MemoMatchesAColdMapperOnCollidingPages)
{
    // Cycle through more pages than the memo holds, all in one memo
    // slot, plus pass-through pages (VPNs at and above 2^vpn_bits)
    // and the highest address. Every answer must equal a fresh
    // mapper's, whose empty memo forces the full walk.
    const std::size_t slot = PageMapper::memoSlot(0);
    for (unsigned page_bits : {6u, 12u, 31u}) {
        for (unsigned vpn_bits : {8u, 20u}) {
            SCOPED_TRACE("page bits " + std::to_string(page_bits) +
                         ", vpn bits " + std::to_string(vpn_bits));
            const std::uint64_t window = std::uint64_t{1} << vpn_bits;
            // Colliding pages just below the window's end (permuted)
            // and at or above it (passed through).
            std::vector<std::uint64_t> vpns;
            for (std::uint64_t vpn = window; vpn-- > 0 && vpns.size() < 40;) {
                if (PageMapper::memoSlot(vpn) == slot)
                    vpns.push_back(vpn);
            }
            ASSERT_FALSE(vpns.empty());
            for (std::uint64_t vpn = window;
                 vpns.size() < PageMapper::kMemoEntries + 16; ++vpn) {
                if (PageMapper::memoSlot(vpn) == slot)
                    vpns.push_back(vpn);
            }
            ASSERT_GE(vpns.back(), window);
            vpns.push_back(window - 1);
            vpns.push_back(window);
            vpns.push_back(~std::uint64_t{0} >> page_bits);

            PageMapper memo(TranslationMode::SHUFFLED, page_bits, vpn_bits,
                            0x5eed);
            const Addr last = mask(page_bits);
            for (int round = 0; round < 3; ++round) {
                for (std::uint64_t vpn : vpns) {
                    for (Addr offset : {Addr{0}, last / 2, last}) {
                        const Addr a = (vpn << page_bits) | offset;
                        PageMapper cold(TranslationMode::SHUFFLED,
                                        page_bits, vpn_bits, 0x5eed);
                        ASSERT_EQ(memo.translate(a), cold.translate(a))
                            << std::hex << a;
                    }
                }
            }
        }
    }
}

TEST(PageMapperDeath, Validation)
{
    EXPECT_DEATH(PageMapper(TranslationMode::SHUFFLED, 2),
                 "page size");
    EXPECT_DEATH(PageMapper(TranslationMode::SHUFFLED, 12, 13),
                 "even");
}

TEST(TranslationSystem, UnitStreamsSurvivePageShuffling)
{
    // Unit-stride runs cross a page boundary only every 128 blocks;
    // streams re-lock on the new page, so the hit rate stays high.
    MemorySystemConfig config;
    config.l1.icache = {1024, 2, 32, ReplacementKind::LRU, true, true, 1};
    config.l1.dcache = {1024, 2, 32, ReplacementKind::LRU, true, true, 2};
    config.streams.numStreams = 4;
    config.translation = TranslationMode::SHUFFLED;

    MemorySystem sys(config);
    std::vector<MemAccess> trace;
    for (int i = 0; i < 2000; ++i)
        trace.push_back(makeLoad(0x100000 + i * 32));
    VectorSource src(trace);
    sys.run(src);
    SystemResults r = sys.finish();
    // ~2000/128 = 16 page-boundary breaks out of 2000 references.
    EXPECT_GT(r.streamHitRatePercent, 95.0);
}

TEST(TranslationSystem, SuperPageStridesSurviveLargePages)
{
    // A 16 KB stride is fragmented by 4 KB pages but preserved inside
    // 1 MB pages (superpages), restoring czone detection.
    auto run = [](unsigned page_bits) {
        MemorySystemConfig config;
        config.l1.icache = {1024, 2, 32, ReplacementKind::LRU, true,
                            true, 1};
        config.l1.dcache = {1024, 2, 32, ReplacementKind::LRU, true,
                            true, 2};
        config.streams.numStreams = 4;
        config.streams.allocation = AllocationPolicy::UNIT_FILTER;
        config.streams.strideDetection = StrideDetection::CZONE;
        config.streams.czoneBits = 18;
        config.translation = TranslationMode::SHUFFLED;
        config.pageBits = page_bits;

        MemorySystem sys(config);
        std::vector<MemAccess> trace;
        // 64-element columns at a 16 KB stride, many columns.
        for (int col = 0; col < 40; ++col)
            for (int i = 0; i < 64; ++i)
                trace.push_back(makeLoad(0x1000000 + col * 1040 +
                                         static_cast<Addr>(i) * 16384));
        VectorSource src(trace);
        sys.run(src);
        return sys.finish().streamHitRatePercent;
    };
    double small_pages = run(12); // 4 KB: every strided ref crosses.
    double super_pages = run(20); // 1 MB: 64 refs per page.
    EXPECT_LT(small_pages, 20.0);
    EXPECT_GT(super_pages, 55.0);
}
