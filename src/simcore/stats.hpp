#pragma once

// Streaming statistics used by telemetry compaction and the analysis layer:
//   - running_stats: count/sum/min/max — the fields a Thanos downsampled
//                    chunk keeps per bucket, and all the store keeps per
//                    day/hour slot (mean = sum / count)
//   - welford_stats: count/mean/variance (Welford) for the few analyses
//                    that need a spread (DRS imbalance, intra-BB stddev)
//   - p2_quantile:   constant-memory quantile sketch (Jain & Chlamtac '85),
//                    used for the daily p95 contention series of Figure 9
//   - histogram:     fixed-width bins over a known range
//   - empirical CDF helpers for Figure 14

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace sci {

/// Constant-memory accumulator of count, sum and extrema.
class running_stats {
public:
    void add(double x) {
        ++count_;
        sum_ += x;
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    /// Reconstruct an accumulator from stored moments (count/mean/min/max),
    /// e.g. when re-ingesting exported daily aggregates.
    static running_stats from_moments(std::uint64_t count, double mean,
                                      double min, double max);

    /// Merge another accumulator into this one.
    void merge(const running_stats& other);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    /// Mean of added values; 0 when empty.
    double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
    /// Minimum; +inf when empty.
    double min() const { return min_; }
    /// Maximum; -inf when empty.
    double max() const { return max_; }
    bool empty() const { return count_ == 0; }

    /// Exact internal state for checkpointing: restoring it continues
    /// every future add() and merge() bit for bit.
    struct exact_state {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
    };
    exact_state exact() const { return {count_, sum_, min_, max_}; }
    static running_stats from_exact(const exact_state& s) {
        running_stats r;
        r.count_ = s.count;
        r.sum_ = s.sum;
        r.min_ = s.min;
        r.max_ = s.max;
        return r;
    }

private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/// Welford accumulator of mean and population variance.
class welford_stats {
public:
    void add(double x);

    std::uint64_t count() const { return count_; }
    /// Mean of added values; 0 when empty.
    double mean() const { return mean_; }
    /// Population variance; 0 when fewer than 2 samples.
    double variance() const;
    double stddev() const;

private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;  // sum of squared deviations from the mean
};

/// P² single-quantile estimator: O(1) memory, good accuracy for the smooth
/// utilization distributions we aggregate.  Exact for < 5 samples.
class p2_quantile {
public:
    explicit p2_quantile(double quantile);

    void add(double x);
    /// Current estimate; 0 when empty.
    double value() const;
    std::uint64_t count() const { return count_; }

private:
    double quantile_;
    std::uint64_t count_ = 0;
    std::array<double, 5> heights_{};
    std::array<double, 5> positions_{};
    std::array<double, 5> desired_{};
    std::array<double, 5> increments_{};
};

/// Fixed-width histogram over [lo, hi); out-of-range values clamp to the
/// edge bins.
class histogram {
public:
    histogram(double lo, double hi, std::size_t bins);

    void add(double x);
    std::uint64_t total() const { return total_; }
    std::size_t bin_count() const { return counts_.size(); }
    std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
    double bin_lower(std::size_t i) const;
    double bin_upper(std::size_t i) const;
    /// Fraction of samples strictly below x (linear interpolation in-bin).
    double cdf(double x) const;

private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/// Exact quantile of a sample set (sorts a copy; linear interpolation).
/// q in [0, 1].  Throws on an empty span.
double exact_quantile(std::span<const double> samples, double q);

/// Point of the empirical CDF: fraction of samples <= x.
double empirical_cdf(std::span<const double> sorted_samples, double x);

}  // namespace sci
