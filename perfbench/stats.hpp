#pragma once

// Order statistics for host timings.
//
// Every timing the benchmark prints is a median plus a tail: the highest
// percentile of a fixed ladder that still has at least ten samples ranked
// beyond it, so a tail figure is never one or two outliers dressed up as
// a p99.  Percentiles use the nearest-rank definition (the value at rank
// ceil(q/100 * n), 1-based), which always names an observed sample.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that a tail figure must have ranked after it.
inline constexpr std::size_t min_samples_beyond = 10;

/// Percentiles a tail may be reported at, ascending.
inline constexpr double percentile_ladder[] = {50.0, 90.0, 95.0, 99.0, 99.9};

/// 1-based nearest rank of percentile q over n samples.  The epsilon keeps
/// decimal percentiles exact: 99.9% of 10,000 is rank 9,990, not 9,991.
inline std::size_t nearest_rank(double q, std::size_t n) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples ranked strictly after percentile q's nearest rank.
inline std::size_t samples_beyond(double q, std::size_t n) {
    return n == 0 ? 0 : n - nearest_rank(q, n);
}

/// Highest ladder percentile with >= min_samples_beyond samples after it;
/// 0 when n is too small for any.
inline double tail_percentile(std::size_t n) {
    double best = 0.0;
    for (const double q : percentile_ladder) {
        if (samples_beyond(q, n) >= min_samples_beyond) best = q;
    }
    return best;
}

/// Nearest-rank percentile of unsorted samples (0 for an empty set).
inline double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    const std::size_t k = nearest_rank(q, values.size()) - 1;
    std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                     values.end());
    return values[k];
}

/// Median by the midpoint of the two middle samples (0 for an empty set).
inline double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Median, tail and count of one timing.
struct summary {
    std::size_t n = 0;
    double median = 0.0;
    double tail_q = 0.0;      ///< 0 = too few samples for a tail
    double tail_value = 0.0;
};

inline summary summarize(const std::vector<double>& values) {
    summary s;
    s.n = values.size();
    s.median = median(values);
    s.tail_q = tail_percentile(values.size());
    if (s.tail_q > 0.0) s.tail_value = percentile(values, s.tail_q);
    return s;
}

}  // namespace perfbench
