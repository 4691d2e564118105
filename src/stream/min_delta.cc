#include "min_delta.hh"

#include "util/logging.hh"

namespace sbsim {

MinDeltaDetector::MinDeltaDetector(std::uint32_t entries,
                                   std::uint64_t max_stride)
    : slots_(entries), maxStride_(max_stride)
{
    SBSIM_ASSERT(entries > 0, "min-delta detector needs entries");
}

std::optional<StrideAllocation>
MinDeltaDetector::onMiss(Addr a)
{
    ++lookups_;

    // Deltas are taken modulo 2^64 and compared by unsigned
    // magnitude, so addresses 2^63 or more apart neither overflow the
    // subtraction nor negate INT64_MIN.
    bool found = false;
    std::uint64_t best = 0;
    std::uint64_t best_mag = 0;
    for (const auto &s : slots_) {
        if (!s.valid)
            continue;
        std::uint64_t delta = a - s.addr;
        if (delta == 0)
            continue;
        std::uint64_t mag =
            static_cast<std::int64_t>(delta) < 0 ? 0 - delta : delta;
        if (!found || mag < best_mag) {
            best = delta;
            best_mag = mag;
            found = true;
        }
    }

    slots_[nextVictim_] = {a, true};
    if (++nextVictim_ == slots_.size())
        nextVictim_ = 0;

    if (!found || best_mag > maxStride_)
        return std::nullopt;

    ++allocations_;
    return StrideAllocation{a, static_cast<std::int64_t>(best)};
}

void
MinDeltaDetector::reset()
{
    for (auto &s : slots_)
        s = Slot{};
    nextVictim_ = 0;
    lookups_.reset();
    allocations_.reset();
}

} // namespace sbsim
