/**
 * @file
 * Block-granularity footprint tracking, hoisted out of TraceStats so
 * the reuse-distance profiler (reuse_profile.hh) and the pass-through
 * trace statistics share one implementation of "how many distinct
 * blocks has this stream touched".
 */

#ifndef STREAMSIM_TRACE_FOOTPRINT_HH
#define STREAMSIM_TRACE_FOOTPRINT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/block.hh"

namespace sbsim {

/**
 * Set of distinct blocks touched, at one block granularity.
 *
 * A flat open-addressing table of block numbers with linear probing,
 * doubled at half full. Its hash keeps runs of 16 consecutive blocks
 * in consecutive slots, so a miss stream walking memory probes the
 * table a cache line at a time, with no heap node per block. Block
 * number ~0 marks an empty slot; only 1-byte blocks can produce it,
 * and a flag tracks that one block instead.
 */
class BlockFootprint
{
  public:
    /** @param block_size Footprint granularity in bytes (power of 2). */
    explicit BlockFootprint(unsigned block_size)
        : mapper_(block_size), slots_(kInitialSlots, kEmpty)
    {}

    /** Record the block containing @p a; true when it is new. */
    // analyze:hot-path
    bool
    touch(Addr a)
    {
        const std::uint64_t block = mapper_.blockNumber(a);
        if (block == kEmpty) {
            const bool first = !holdsEmptyKey_;
            holdsEmptyKey_ = true;
            return first;
        }
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(block);; i = (i + 1) & mask) {
            if (slots_[i] == block)
                return false;
            if (slots_[i] == kEmpty) {
                slots_[i] = block;
                if (++used_ * 2 > slots_.size())
                    grow();
                return true;
            }
        }
    }

    /** Unique blocks touched so far. */
    std::uint64_t
    uniqueBlocks() const
    {
        return used_ + (holdsEmptyKey_ ? 1 : 0);
    }

    /** Footprint in bytes (unique blocks x block size). */
    std::uint64_t
    footprintBytes() const
    {
        return uniqueBlocks() * mapper_.blockSize();
    }

    const BlockMapper &mapper() const { return mapper_; }

    void
    clear()
    {
        slots_.assign(kInitialSlots, kEmpty);
        runBits_ = kInitialBits - kRunBits;
        used_ = 0;
        holdsEmptyKey_ = false;
    }

  private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    static constexpr unsigned kRunBits = 4;
    static constexpr std::uint64_t kRun = std::uint64_t{1} << kRunBits;
    static constexpr unsigned kInitialBits = 10;
    static constexpr std::size_t kInitialSlots = std::size_t{1}
                                                 << kInitialBits;

    std::size_t
    home(std::uint64_t block) const
    {
        // Fibonacci hashing of the run number picks the run's first
        // slot; the block's offset in its run picks the slot after it.
        const std::uint64_t run =
            ((block >> kRunBits) * 0x9e3779b97f4a7c15ULL) >>
            (64 - runBits_);
        return static_cast<std::size_t>((run << kRunBits) |
                                        (block & (kRun - 1)));
    }

    void
    grow()
    {
        std::vector<std::uint64_t> old(slots_.size() * 2, kEmpty);
        old.swap(slots_);
        ++runBits_;
        const std::size_t mask = slots_.size() - 1;
        for (std::uint64_t block : old) {
            if (block == kEmpty)
                continue;
            std::size_t i = home(block);
            while (slots_[i] != kEmpty)
                i = (i + 1) & mask;
            slots_[i] = block;
        }
    }

    BlockMapper mapper_;
    std::vector<std::uint64_t> slots_;
    /** log2 of the number of runs the table holds. */
    unsigned runBits_ = kInitialBits - kRunBits;
    /** Blocks held in slots_ (all but the ~0 block). */
    std::uint64_t used_ = 0;
    bool holdsEmptyKey_ = false;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_FOOTPRINT_HH
