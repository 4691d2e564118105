#include "stats.hh"

#include <iomanip>

#include "logging.hh"

namespace sbsim {

BucketedDistribution::BucketedDistribution(
    std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0)
{
    SBSIM_ASSERT(!bounds_.empty(), "distribution needs at least one bucket");
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        SBSIM_ASSERT(bounds_[i] > bounds_[i - 1],
                     "bucket bounds must be strictly ascending");
    }
}

void
BucketedDistribution::sample(std::uint64_t value, std::uint64_t weight)
{
    // The bucket index is the number of (ascending) bounds below the
    // value. Counting them over every bound, instead of stopping at
    // the first one not below it, has no data-dependent branch: the
    // stream engine samples every flushed run, and run lengths vary.
    std::size_t i = 0;
    for (std::uint64_t bound : bounds_)
        i += value > bound;
    counts_[i] += weight;
    total_ += weight;
}

double
BucketedDistribution::sharePercent(std::size_t i) const
{
    return percent(counts_.at(i), total_);
}

std::vector<double>
BucketedDistribution::sharesPercent() const
{
    std::vector<double> shares;
    for (std::size_t i = 0; i < counts_.size(); ++i)
        shares.push_back(sharePercent(i));
    return shares;
}

std::string
BucketedDistribution::bucketLabel(std::size_t i) const
{
    SBSIM_ASSERT(i < counts_.size(), "bucket index out of range");
    if (i == bounds_.size())
        return ">" + std::to_string(bounds_.back());
    std::uint64_t lo = i == 0 ? 0 : bounds_[i - 1] + 1;
    return std::to_string(lo) + "-" + std::to_string(bounds_[i]);
}

void
BucketedDistribution::reset()
{
    for (auto &c : counts_)
        c = 0;
    total_ = 0;
}

void
StatGroup::print(std::ostream &os) const
{
    for (const auto &s : stats_) {
        os << std::left << std::setw(40) << (name_ + "." + s.name)
           << std::right << std::setw(16) << std::fixed
           << std::setprecision(4) << s.value;
        if (!s.description.empty())
            os << "  # " << s.description;
        os << '\n';
    }
}

} // namespace sbsim
