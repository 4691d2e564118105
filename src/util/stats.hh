/**
 * @file
 * Lightweight statistics primitives: counters, ratios, bucketed
 * distributions and a named registry for reporting.
 *
 * Modelled loosely on gem5's stats package but intentionally minimal:
 * a stat is a value plus a name and description, and a StatGroup can
 * render all of its stats as text.
 */

#ifndef STREAMSIM_UTIL_STATS_HH
#define STREAMSIM_UTIL_STATS_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace sbsim {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Percentage helper: 100 * num / denom, 0 when denom == 0. */
inline double
percent(std::uint64_t num, std::uint64_t denom)
{
    return denom == 0 ? 0.0 : 100.0 * static_cast<double>(num) /
                                  static_cast<double>(denom);
}

/** percent() of two doubles, such as weighted sums of counts; for
 *  exact conversions of integers, bit for bit their percent(). */
inline double
percentOf(double num, double denom)
{
    return denom == 0 ? 0.0 : 100.0 * num / denom;
}

/** Ratio helper: num / denom, 0 when denom == 0. */
inline double
ratio(std::uint64_t num, std::uint64_t denom)
{
    return denom == 0 ? 0.0
                      : static_cast<double>(num) /
                            static_cast<double>(denom);
}

/**
 * A distribution over explicit, contiguous integer buckets.
 *
 * Buckets are defined by their (inclusive) upper bounds; a final
 * overflow bucket catches everything above the last bound. This is
 * exactly what Table 3 of the paper needs: stream lengths bucketed as
 * 1-5, 6-10, 11-15, 16-20, >20.
 */
class BucketedDistribution
{
  public:
    /** @param upper_bounds Ascending inclusive upper bucket bounds. */
    explicit BucketedDistribution(std::vector<std::uint64_t> upper_bounds);

    /** Record one sample with the given weight. */
    void sample(std::uint64_t value, std::uint64_t weight = 1);

    /** Number of buckets, including the overflow bucket. */
    std::size_t size() const { return counts_.size(); }

    /** Raw count in bucket @p i. */
    std::uint64_t count(std::size_t i) const { return counts_.at(i); }

    /** Bucket share of the total weight, in percent. */
    double sharePercent(std::size_t i) const;

    /** sharePercent() of every bucket, in bucket order. */
    std::vector<double> sharesPercent() const;

    /** Total recorded weight. */
    std::uint64_t total() const { return total_; }

    /** Human-readable label for bucket @p i, e.g. "6-10" or ">20". */
    std::string bucketLabel(std::size_t i) const;

    void reset();

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * RAII wall-clock timer: accumulates the scope's elapsed seconds into
 * a caller-owned double on destruction. Used by the sweep runner and
 * bench harness for per-job and total wall-clock reporting.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(double &sink_seconds)
        : sink_(&sink_seconds),
          start_(std::chrono::steady_clock::now())
    {}

    ~ScopedTimer() { *sink_ += elapsedSeconds(); }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Seconds since construction, without stopping the timer. */
    double
    elapsedSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    double *sink_;
    std::chrono::steady_clock::time_point start_;
};

/** A single named scalar for reporting. */
struct StatValue
{
    std::string name;
    std::string description;
    double value;
};

/**
 * A named collection of stats that can be rendered as text. Simulator
 * components expose their statistics by filling one of these.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Add one named scalar. */
    void
    add(const std::string &stat_name, double value,
        const std::string &description = "")
    {
        stats_.push_back({stat_name, description, value});
    }

    const std::string &name() const { return name_; }
    const std::vector<StatValue> &stats() const { return stats_; }

    /** Render "group.stat  value  # description" lines. */
    void print(std::ostream &os) const;

  private:
    std::string name_;
    std::vector<StatValue> stats_;
};

} // namespace sbsim

#endif // STREAMSIM_UTIL_STATS_HH
