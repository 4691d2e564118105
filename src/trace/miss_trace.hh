/**
 * @file
 * The memoised post-L1 reference stream. Stream buffers sit *below*
 * the primary cache, so the sequence of events the secondary level
 * observes — demand misses that escaped the L1 and victim buffer,
 * software-prefetch fetches, and dirty write-backs — is a pure
 * function of (trace, L1 front-end configuration). A MissTrace
 * records that sequence once, together with the front-end cycle
 * deltas between events, and MemorySystem::replayMissTrace drives any
 * secondary configuration (streams / czones / filters / L2 / bus)
 * from it with bit-identical results at a fraction of the cost.
 *
 * See docs/INTERNALS.md "Trace reuse & miss-stream replay" for the
 * invariance argument and the record layout.
 */

#ifndef STREAMSIM_TRACE_MISS_TRACE_HH
#define STREAMSIM_TRACE_MISS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "mem/types.hh"
#include "trace/source.hh"

namespace sbsim {

/** One event of the post-L1 stream, with the front-end cycles that
 *  elapsed since the previous event. MissTrace::forEach hands out
 *  this decoded view; the trace itself stores packed records. */
struct MissRecord
{
    enum class Kind : std::uint8_t
    {
        /** A dirty block left the chip (handleEviction / L1 victim
         *  displacement); access.addr holds the block base. */
        WRITEBACK,
        /** A software PREFETCH reference that missed the L1 and must
         *  fetch its block below the streams. */
        SW_PREFETCH,
        /** A demand miss that escaped both the L1 and the victim
         *  buffer; the reference the streams are consulted with. */
        DEMAND,
    };

    /** The (already translated) reference presented to the secondary
     *  level. Its pc is always 0: nothing below the L1 reads it, so
     *  the trace does not keep it. */
    MemAccess access;

    /** Front-end cycles accumulated since the previous record, split
     *  by breakdown component so replay reproduces CycleBreakdown
     *  exactly. */
    std::uint64_t dL1HitCycles = 0;
    std::uint64_t dVictimHitCycles = 0;
    std::uint64_t dSwPrefetchCycles = 0;

    Kind kind = Kind::DEMAND;
};

/**
 * The counts of a run's L1 front end: the front-end part of the
 * simulator's RunCounts. No rate is kept; every rate is derived from
 * the counts when a run reports.
 */
struct FrontEndCounts
{
    std::uint64_t instructionRefs = 0;
    std::uint64_t dataRefs = 0;
    std::uint64_t swPrefetches = 0;
    std::uint64_t swPrefetchesIssued = 0;
    std::uint64_t swPrefetchesRedundant = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l1DataMisses = 0;
    std::uint64_t victimHits = 0;
    std::uint64_t writebacks = 0;

    /** Instruction, data and software-prefetch references. */
    std::uint64_t
    references() const
    {
        return instructionRefs + dataRefs + swPrefetches;
    }
};

/**
 * What a replay needs besides the records. The recording run's
 * front-end counts are reported by every replay as its own (a
 * replayed front end never runs), so a replayed run's results are
 * bit-identical to the naive run's.
 */
struct MissTraceSummary
{
    FrontEndCounts counts;

    /** Front-end cycles accumulated after the last record (trailing
     *  L1 hits never followed by a miss). */
    std::uint64_t tailL1HitCycles = 0;
    std::uint64_t tailVictimHitCycles = 0;
    std::uint64_t tailSwPrefetchCycles = 0;

    /** The recorded source's TimeSampler counts, reported by every
     *  replay of the trace. */
    std::optional<SamplerCounts> samplerCounts;
};

/**
 * The recorded post-L1 stream plus its front-end summary.
 *
 * Each event is one 16-byte packed record: the byte address, the
 * L1-hit delta in 32 bits, the victim-hit delta in 16 bits, one byte
 * holding the kind, the access type and an escape bit, and one byte
 * of access size. A record whose deltas do not fit — a wider delta,
 * or any software-prefetch cycles — sets the escape bit and keeps its
 * three full deltas in a side table, in recording order; forEach
 * walks that table with a cursor of its own, so any number of threads
 * may replay one const trace at once.
 *
 * Records, and the side table's entries, live in fixed-size chunks
 * rather than flat vectors: recording a long run would otherwise
 * spend more time in vector doubling (copying every already-recorded
 * event on each growth step, then once more in shrink_to_fit) than in
 * the simulation itself. A recording with software prefetches escapes
 * most of its records, so the side table can grow as long as the
 * records. Chunks never move once allocated, append is copy-free, and
 * the only slack is the unfilled tail of each table's last chunk
 * (trimmed by shrink()).
 */
class MissTrace
{
  public:
    /** Entries per chunk of either table: 64k records of 16 bytes =
     *  1 MB, 64k escapes of 24 bytes = 1.5 MB. */
    static constexpr std::size_t kChunkRecords = std::size_t{1} << 16;

    /** Record one event; defined out of line (miss_trace.cc). */
    void append(MissRecord::Kind kind, const MemAccess &access,
                std::uint64_t d_l1_hit, std::uint64_t d_victim_hit,
                std::uint64_t d_sw_prefetch);

    std::size_t
    size() const
    {
        if (chunks_.empty())
            return 0;
        return (chunks_.size() - 1) * kChunkRecords +
               chunks_.back().size();
    }

    bool empty() const { return chunks_.empty(); }

    /** Visit every record in recording order, decoded. When @p fn
     *  returns bool, false stops the walk. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        std::size_t escaped = 0;
        MissRecord rec;
        const MissRecord &decoded = rec;
        for (const std::vector<PackedRecord> &chunk : chunks_) {
            for (const PackedRecord &p : chunk) {
                rec.access.addr = p.addr;
                rec.access.type =
                    static_cast<AccessType>((p.bits >> kTypeShift) & 3);
                rec.access.size = p.size;
                rec.kind = static_cast<MissRecord::Kind>(p.bits & 3);
                if (p.bits & kEscapeBit) {
                    const EscapedDeltas &e =
                        escapes_[escaped / kChunkRecords]
                                [escaped % kChunkRecords];
                    ++escaped;
                    rec.dL1HitCycles = e.l1Hit;
                    rec.dVictimHitCycles = e.victimHit;
                    rec.dSwPrefetchCycles = e.swPrefetch;
                } else {
                    rec.dL1HitCycles = p.dL1Hit;
                    rec.dVictimHitCycles = p.dVictimHit;
                    rec.dSwPrefetchCycles = 0;
                }
                if constexpr (std::is_same_v<decltype(fn(decoded)), bool>) {
                    if (!fn(decoded))
                        return;
                } else {
                    fn(decoded);
                }
            }
        }
    }

    MissTraceSummary &summary() { return summary_; }
    const MissTraceSummary &summary() const { return summary_; }

    /** Resident footprint for the cache report: the object, its
     *  packed chunks and the escape table. */
    std::size_t bytes() const;

    /** Trim the unfilled tail of each table's last chunk. */
    void shrink();

  private:
    /** Bits of PackedRecord::bits: kind in 0-1, type in 2-3. */
    static constexpr unsigned kTypeShift = 2;
    static constexpr std::uint8_t kEscapeBit = 1u << 4;

    struct PackedRecord
    {
        Addr addr;
        std::uint32_t dL1Hit;
        std::uint16_t dVictimHit;
        std::uint8_t bits;
        std::uint8_t size;
    };
    static_assert(sizeof(PackedRecord) == 16);

    /** The full deltas of one escaped record. */
    struct EscapedDeltas
    {
        std::uint64_t l1Hit;
        std::uint64_t victimHit;
        std::uint64_t swPrefetch;
    };

    std::vector<std::vector<PackedRecord>> chunks_;
    std::vector<std::vector<EscapedDeltas>> escapes_;
    MissTraceSummary summary_;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_MISS_TRACE_HH
