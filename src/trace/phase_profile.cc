#include "trace/phase_profile.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "mem/block.hh"
#include "util/bitutil.hh"
#include "util/logging.hh"

namespace sbsim {
namespace {

/** Signature layout: [0, kReuseOctaves) reuse octaves, then cold,
 *  instruction-fetch and store fractions. */
constexpr std::size_t kSigDims = kReuseOctaves + 3;

/**
 * The position of every block's last touch, in one flat
 * open-addressing table. The hash scatters runs of kRun consecutive
 * blocks and keeps each run in consecutive slots, so a pass streaming
 * through memory walks the table a cache line at a time. The table
 * doubles at half full, so each block costs two to four 16-byte
 * slots, however a trace spreads its blocks over the address range.
 */
class LastTouchIndex
{
  public:
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};

    LastTouchIndex() : slots_(std::size_t{1} << kInitialBits) {}

    /** Record a touch of @p block at @p pos. @return the position of
     *  the block's previous touch, or kNever for its first. */
    std::uint64_t
    exchange(std::uint64_t block, std::uint64_t pos)
    {
        for (std::size_t i = home(block);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.touch == 0) {
                s = {block, pos + 1};
                if (++used_ * 2 > slots_.size())
                    grow();
                return kNever;
            }
            if (s.block == block) {
                const std::uint64_t prev = s.touch - 1;
                s.touch = pos + 1;
                return prev;
            }
        }
    }

  private:
    static constexpr unsigned kRunBits = 4;
    static constexpr std::uint64_t kRun = std::uint64_t{1} << kRunBits;
    static constexpr unsigned kInitialBits = 12;

    struct Slot
    {
        std::uint64_t block = 0;
        /** Last touch position + 1; 0 marks an empty slot. */
        std::uint64_t touch = 0;
    };

    std::size_t
    home(std::uint64_t block) const
    {
        // Fibonacci hashing of the run number picks the run's first
        // slot; the block's offset in its run picks the slot after it.
        const std::uint64_t run =
            ((block >> kRunBits) * 0x9e3779b97f4a7c15ULL) >> (64 - runBits_);
        return static_cast<std::size_t>((run << kRunBits) |
                                        (block & (kRun - 1)));
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        mask_ = slots_.size() - 1;
        ++runBits_;
        for (const Slot &s : old) {
            if (s.touch == 0)
                continue;
            std::size_t i = home(s.block);
            while (slots_[i].touch != 0)
                i = (i + 1) & mask_;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = (std::size_t{1} << kInitialBits) - 1;
    /** log2 of the number of runs the table holds. */
    unsigned runBits_ = kInitialBits - kRunBits;
    std::size_t used_ = 0;
};

/** Normalize the profile's counts by interval length, so signatures
 *  of different-length intervals compare. */
std::vector<double>
makeSignature(const IntervalProfile &p)
{
    std::vector<double> sig(kSigDims, 0.0);
    for (std::size_t bin = 0; bin < kReuseOctaves; ++bin)
        sig[bin] = static_cast<double>(p.reuse[bin]);
    sig[kReuseOctaves] = static_cast<double>(p.cold);
    sig[kReuseOctaves + 1] = static_cast<double>(p.ifetch);
    sig[kReuseOctaves + 2] = static_cast<double>(p.stores);
    if (p.length > 0) {
        double inv = 1.0 / static_cast<double>(p.length);
        for (double &v : sig)
            v *= inv;
    }
    return sig;
}

double
l1Distance(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        d += std::abs(a[i] - b[i]);  // analyze:allow(float-accum) geometry, not a stats counter
    return d;
}

} // namespace

std::string
PhaseProfileConfig::key() const
{
    std::ostringstream os;
    os << "iv" << intervalRefs << ":wu" << warmupRefs << ":k"
       << maxClusters << ":b" << blockBytes << ":t" << leaderThreshold;
    return os.str();
}

std::vector<IntervalProfile>
profileIntervals(const MaterializedTrace &trace,
                 const PhaseProfileConfig &config)
{
    SBSIM_ASSERT(config.intervalRefs > 0,
                 "sampling plan needs intervalRefs > 0");
    const MemAccess *refs = trace.data();
    const std::uint64_t n = trace.size();
    std::vector<IntervalProfile> profiles(
        n / config.intervalRefs + (n % config.intervalRefs != 0));

    // Per interval: reuse time of each reference (position delta to
    // the previous touch of its block) by octave, cold references,
    // reference mix. A block's absence from the last-touch index IS
    // the cold signal, so no separate footprint set is kept.
    const BlockMapper mapper(config.blockBytes);
    LastTouchIndex lastTouch;
    std::uint64_t pos = 0;
    for (IntervalProfile &p : profiles) {
        p.begin = pos;
        p.length = std::min(config.intervalRefs, n - pos);
        for (const std::uint64_t end = pos + p.length; pos < end; ++pos) {
            const MemAccess &a = refs[pos];
            p.ifetch += a.isInstruction();
            p.stores += a.isWrite();
            const std::uint64_t prev =
                lastTouch.exchange(mapper.blockNumber(a.addr), pos);
            if (prev == LastTouchIndex::kNever)
                ++p.cold;
            else
                ++p.reuse[std::min<std::size_t>(
                    floorLog2(pos - prev) + 1, kReuseOctaves - 1)];
        }
    }
    return profiles;
}

SamplingPlan
selectIntervals(const std::vector<IntervalProfile> &profiles,
                const PhaseProfileConfig &config)
{
    SBSIM_ASSERT(config.maxClusters > 0,
                 "sampling plan needs maxClusters > 0");

    SamplingPlan plan;
    plan.config = config;
    std::uint64_t n = 0;
    for (const IntervalProfile &p : profiles)
        n += p.length;
    plan.totalRefs = n;
    plan.intervalsTotal = profiles.size();

    // Degenerate traces: one full-length interval, weight 1, no
    // warmup — the sampled run is then the exact run.
    auto makeExact = [&plan, n] {
        plan.exact = true;
        plan.selected.assign(1, SampledInterval{0, n, 0, 1.0});
    };
    if (plan.intervalsTotal <= 1) {
        makeExact();
        return plan;
    }

    std::vector<std::vector<double>> sigs(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i)
        sigs[i] = makeSignature(profiles[i]);

    // Leader clustering: first-fit leaders within a distance
    // threshold, doubled until at most maxClusters remain. Distances
    // are bounded (normalized signatures), so this terminates.
    std::vector<std::size_t> leaders;
    double threshold = config.leaderThreshold;
    for (int round = 0; round < 64; ++round) {
        leaders.clear();
        for (std::size_t i = 0; i < sigs.size(); ++i) {
            bool covered = false;
            for (std::size_t l : leaders) {
                if (l1Distance(sigs[i], sigs[l]) <= threshold) {
                    covered = true;
                    break;
                }
            }
            if (!covered)
                leaders.push_back(i);
        }
        if (leaders.size() <= config.maxClusters)
            break;
        threshold *= 2.0;
    }
    if (leaders.size() > config.maxClusters)
        leaders.resize(config.maxClusters);

    // Assign every interval to its nearest leader.
    std::vector<std::size_t> assignment(sigs.size(), 0);
    for (std::size_t i = 0; i < sigs.size(); ++i) {
        double best = l1Distance(sigs[i], sigs[leaders[0]]);
        for (std::size_t c = 1; c < leaders.size(); ++c) {
            double d = l1Distance(sigs[i], sigs[leaders[c]]);
            if (d < best) {
                best = d;
                assignment[i] = c;
            }
        }
    }

    // Medoid refinement: represent each cluster by the member with
    // the least total distance to the rest of the cluster.
    std::vector<std::vector<std::size_t>> members(leaders.size());
    for (std::size_t i = 0; i < sigs.size(); ++i)
        members[assignment[i]].push_back(i);
    plan.selected.clear();
    for (const std::vector<std::size_t> &cluster : members) {
        if (cluster.empty())
            continue;
        std::size_t medoid = cluster[0];
        double best = -1.0;
        for (std::size_t cand : cluster) {
            double total = 0;
            for (std::size_t other : cluster)
                total += l1Distance(sigs[cand], sigs[other]);  // analyze:allow(float-accum) geometry, not a stats counter
            if (best < 0 || total < best) {
                best = total;
                medoid = cand;
            }
        }
        std::uint64_t clusterRefs = 0;
        for (std::size_t m : cluster)
            clusterRefs += profiles[m].length;
        SampledInterval sel;
        sel.begin = profiles[medoid].begin;
        sel.length = profiles[medoid].length;
        sel.warmupBegin =
            sel.begin - std::min<std::uint64_t>(sel.begin,
                                                config.warmupRefs);
        sel.weight = static_cast<double>(clusterRefs) /
                     static_cast<double>(sel.length);
        plan.selected.push_back(sel);
    }
    std::sort(plan.selected.begin(), plan.selected.end(),
              [](const SampledInterval &a, const SampledInterval &b) {
                  return a.begin < b.begin;
              });

    // No savings? Fall back to the exact single-interval plan.
    if (plan.simulatedRefs() + plan.warmupTotal() >= n)
        makeExact();
    return plan;
}

SamplingPlan
buildSamplingPlan(const MaterializedTrace &trace,
                  const PhaseProfileConfig &config)
{
    return selectIntervals(profileIntervals(trace, config), config);
}

} // namespace sbsim
