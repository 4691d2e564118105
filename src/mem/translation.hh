/**
 * @file
 * Virtual-to-physical address translation for the paper's off-chip
 * perspective. Section 7 notes that once off-chip, "the only
 * information one has are the physical addresses of the data
 * references" — and the czone detector partitions *physical* space.
 * The paper's traces were effectively contiguous; on a real OS,
 * however, consecutive virtual pages land on scattered physical
 * frames, which fragments any stride larger than a page.
 *
 * The PageMapper models this: identity mapping (the paper's implicit
 * assumption) or a deterministic pseudo-random permutation of page
 * frames (a long-running OS's page soup), with configurable page
 * size. The permutation is a Feistel network over the virtual page
 * number, so it is a true bijection — two virtual pages never collide
 * on one frame.
 */

#ifndef STREAMSIM_MEM_TRANSLATION_HH
#define STREAMSIM_MEM_TRANSLATION_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "mem/types.hh"
#include "util/bitutil.hh"
#include "util/logging.hh"

namespace sbsim {

/** How virtual pages map onto physical frames. */
enum class TranslationMode : std::uint8_t
{
    IDENTITY, ///< paddr == vaddr (the paper's setting).
    SHUFFLED, ///< Pseudo-random bijective frame assignment.
};

/** Deterministic page-granular address translation. */
class PageMapper
{
  public:
    /**
     * @param mode Identity or shuffled frames.
     * @param page_bits log2 of the page size (12 = 4 KB).
     * @param vpn_bits Width of the permuted VPN field; virtual pages
     *        above 2^vpn_bits pass through unpermuted. Must be even.
     * @param seed Permutation key.
     */
    explicit PageMapper(TranslationMode mode = TranslationMode::IDENTITY,
                        unsigned page_bits = 12, unsigned vpn_bits = 20,
                        std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : mode_(mode), pageBits_(page_bits), vpnBits_(vpn_bits),
          seed_(seed)
    {
        SBSIM_ASSERT(page_bits >= 6 && page_bits < 32,
                     "unreasonable page size");
        SBSIM_ASSERT(vpn_bits >= 2 && vpn_bits <= 40 &&
                         vpn_bits % 2 == 0,
                     "vpn_bits must be a small even width");
    }

    TranslationMode mode() const { return mode_; }
    unsigned pageBits() const { return pageBits_; }
    std::uint64_t pageSize() const { return std::uint64_t{1} << pageBits_; }

    /** Entries of the translation memo. */
    static constexpr unsigned kMemoBits = 6;
    static constexpr std::size_t kMemoEntries = std::size_t{1} << kMemoBits;

    /**
     * Memo slot of virtual page @p vpn: Fibonacci hashing of the
     * whole VPN. Indexing by the low VPN bits instead would alias
     * arrays laid out a multiple of kMemoEntries pages apart (mgrid's
     * three 256 KB grids, say), which a stencil sweep touches in turn.
     */
    static constexpr std::size_t
    memoSlot(std::uint64_t vpn)
    {
        return static_cast<std::size_t>((vpn * 0x9e3779b97f4a7c15ULL) >>
                                        (64 - kMemoBits));
    }

    /** Translate a virtual address to its physical address. */
    // analyze:hot-path
    Addr
    translate(Addr vaddr) const
    {
        if (mode_ == TranslationMode::IDENTITY)
            return vaddr;
        Addr offset = vaddr & mask(pageBits_);
        std::uint64_t vpn = vaddr >> pageBits_;
        // A small direct-mapped memo of recent pages: references
        // cluster on a few pages at a time, even when a sweep
        // interleaves several arrays, so the Feistel walk is paid
        // about once per page run, not per reference.
        MemoEntry &entry = memo_[memoSlot(vpn)];
        if (entry.vpn != vpn) {
            entry.vpn = vpn;
            // Outside the permuted window: keep frame identity.
            entry.frameBase = (vpn >> vpnBits_ ? vpn : permute(vpn))
                              << pageBits_;
        }
        return entry.frameBase | offset;
    }

  private:
    /** Round function: mix half with the key; any hash works. */
    std::uint32_t
    feistelF(std::uint32_t half, std::uint64_t key) const
    {
        std::uint64_t x = half * 0x9e3779b97f4a7c15ULL + key;
        x ^= x >> 29;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 32;
        return static_cast<std::uint32_t>(x);
    }

    /** Three-round Feistel permutation over vpn_bits. */
    std::uint64_t
    permute(std::uint64_t vpn) const
    {
        unsigned half_bits = vpnBits_ / 2;
        std::uint64_t half_mask = mask(half_bits);
        auto left = static_cast<std::uint32_t>(vpn >> half_bits);
        auto right = static_cast<std::uint32_t>(vpn & half_mask);
        for (unsigned round = 0; round < 3; ++round) {
            std::uint32_t next_left = right;
            right = static_cast<std::uint32_t>(
                (left ^ feistelF(right, seed_ + round)) & half_mask);
            left = next_left;
        }
        return (static_cast<std::uint64_t>(left) << half_bits) | right;
    }

    TranslationMode mode_;
    unsigned pageBits_;
    unsigned vpnBits_;
    std::uint64_t seed_;

    struct MemoEntry
    {
        /** Never a VPN: page_bits >= 6 keeps every VPN below 2^58. */
        std::uint64_t vpn = ~std::uint64_t{0};
        Addr frameBase = 0;
    };

    /** Memo of recently translated pages. Mutable: a pure cache of
     *  the deterministic permutation, so translate() stays const for
     *  callers. */
    mutable std::array<MemoEntry, kMemoEntries> memo_{};
};

} // namespace sbsim

#endif // STREAMSIM_MEM_TRANSLATION_HH
