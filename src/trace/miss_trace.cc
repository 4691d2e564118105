#include "trace/miss_trace.hh"

#include <limits>

namespace sbsim {

static_assert(static_cast<unsigned>(MissRecord::Kind::DEMAND) < 4,
              "a kind must fit the record's two kind bits");
static_assert(static_cast<unsigned>(AccessType::PREFETCH) < 4,
              "an access type must fit the record's two type bits");

namespace {

/** Append to a chunked table; a full chunk is never moved or copied. */
template <typename T>
void
pushChunked(std::vector<std::vector<T>> &chunks, const T &value)
{
    if (chunks.empty() || chunks.back().size() == MissTrace::kChunkRecords) {
        chunks.emplace_back();
        chunks.back().reserve(MissTrace::kChunkRecords);
    }
    chunks.back().push_back(value);
}

template <typename T>
std::size_t
chunkBytes(const std::vector<std::vector<T>> &chunks)
{
    std::size_t entries = 0;
    for (const std::vector<T> &chunk : chunks)
        entries += chunk.capacity();
    return entries * sizeof(T);
}

template <typename T>
void
shrinkLastChunk(std::vector<std::vector<T>> &chunks)
{
    if (!chunks.empty())
        chunks.back().shrink_to_fit();
}

} // namespace

// Out of line on purpose: MemorySystem's recorder (recordMissEvent)
// sits on branches of the per-reference path, and the packing should
// not be compiled into every function on that path. Under LTO the
// compiler still decides: GCC 12 inlines append into the recorder and
// keeps the recorder itself out of line, so the per-reference
// functions carry only the call.
void
MissTrace::append(MissRecord::Kind kind, const MemAccess &access,
                  std::uint64_t d_l1_hit, std::uint64_t d_victim_hit,
                  std::uint64_t d_sw_prefetch)
{
    PackedRecord p{access.addr, 0, 0,
                   static_cast<std::uint8_t>(
                       static_cast<unsigned>(kind) |
                       static_cast<unsigned>(access.type) << kTypeShift),
                   access.size};
    if (d_l1_hit <= std::numeric_limits<std::uint32_t>::max() &&
        d_victim_hit <= std::numeric_limits<std::uint16_t>::max() &&
        d_sw_prefetch == 0) {
        p.dL1Hit = static_cast<std::uint32_t>(d_l1_hit);
        p.dVictimHit = static_cast<std::uint16_t>(d_victim_hit);
    } else {
        p.bits |= kEscapeBit;
        pushChunked(escapes_,
                    EscapedDeltas{d_l1_hit, d_victim_hit, d_sw_prefetch});
    }
    pushChunked(chunks_, p);
}

std::size_t
MissTrace::bytes() const
{
    return sizeof(*this) + chunkBytes(chunks_) + chunkBytes(escapes_);
}

void
MissTrace::shrink()
{
    shrinkLastChunk(chunks_);
    shrinkLastChunk(escapes_);
}

} // namespace sbsim
