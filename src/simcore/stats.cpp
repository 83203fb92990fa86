#include "simcore/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "simcore/error.hpp"

namespace sci {

running_stats running_stats::from_moments(std::uint64_t count, double mean,
                                           double min, double max) {
    expects(count == 0 || min <= max, "from_moments: min must not exceed max");
    running_stats s;
    if (count == 0) return s;
    s.count_ = count;
    s.sum_ = mean * static_cast<double>(count);
    s.min_ = min;
    s.max_ = max;
    return s;
}

void running_stats::merge(const running_stats& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void welford_stats::add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double welford_stats::variance() const {
    if (count_ < 2) return 0.0;
    return m2_ / static_cast<double>(count_);
}

double welford_stats::stddev() const { return std::sqrt(variance()); }

p2_quantile::p2_quantile(double quantile) : quantile_(quantile) {
    expects(quantile > 0.0 && quantile < 1.0, "p2_quantile: quantile in (0,1)");
    desired_ = {1.0, 1.0 + 2.0 * quantile_, 1.0 + 4.0 * quantile_,
                3.0 + 2.0 * quantile_, 5.0};
    increments_ = {0.0, quantile_ / 2.0, quantile_, (1.0 + quantile_) / 2.0, 1.0};
}

void p2_quantile::add(double x) {
    if (count_ < 5) {
        heights_[count_] = x;
        ++count_;
        if (count_ == 5) {
            std::sort(heights_.begin(), heights_.end());
            for (std::size_t i = 0; i < 5; ++i) {
                positions_[i] = static_cast<double>(i + 1);
            }
        }
        return;
    }
    ++count_;

    std::size_t k;
    if (x < heights_[0]) {
        heights_[0] = x;
        k = 0;
    } else if (x >= heights_[4]) {
        heights_[4] = x;
        k = 3;
    } else {
        k = 0;
        while (k < 3 && x >= heights_[k + 1]) ++k;
    }

    for (std::size_t i = k + 1; i < 5; ++i) positions_[i] += 1.0;
    for (std::size_t i = 0; i < 5; ++i) desired_[i] += increments_[i];

    for (std::size_t i = 1; i <= 3; ++i) {
        const double d = desired_[i] - positions_[i];
        const double below = positions_[i] - positions_[i - 1];
        const double above = positions_[i + 1] - positions_[i];
        if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
            const double sign = d >= 0 ? 1.0 : -1.0;
            // parabolic (P²) interpolation of the new marker height
            const double hp = heights_[i + 1];
            const double hm = heights_[i - 1];
            const double h = heights_[i];
            const double np = positions_[i + 1];
            const double nm = positions_[i - 1];
            const double ni = positions_[i];
            double candidate =
                h + sign / (np - nm) *
                        ((ni - nm + sign) * (hp - h) / (np - ni) +
                         (np - ni - sign) * (h - hm) / (ni - nm));
            if (candidate <= hm || candidate >= hp) {
                // fall back to linear interpolation when parabola overshoots
                candidate = sign > 0 ? h + (hp - h) / (np - ni)
                                     : h - (hm - h) / (nm - ni);
            }
            heights_[i] = candidate;
            positions_[i] += sign;
        }
    }
}

double p2_quantile::value() const {
    if (count_ == 0) return 0.0;
    if (count_ < 5) {
        std::array<double, 5> sorted = heights_;
        std::sort(sorted.begin(), sorted.begin() + static_cast<long>(count_));
        const double pos = quantile_ * static_cast<double>(count_ - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, static_cast<std::size_t>(count_ - 1));
        const double frac = pos - static_cast<double>(lo);
        return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    }
    return heights_[2];
}

histogram::histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
    expects(hi > lo, "histogram: hi must exceed lo");
    expects(bins > 0, "histogram: need at least one bin");
}

void histogram::add(double x) {
    std::size_t idx;
    if (x < lo_) {
        idx = 0;
    } else if (x >= hi_) {
        idx = counts_.size() - 1;
    } else {
        idx = static_cast<std::size_t>((x - lo_) / width_);
        idx = std::min(idx, counts_.size() - 1);
    }
    ++counts_[idx];
    ++total_;
}

double histogram::bin_lower(std::size_t i) const {
    expects(i < counts_.size(), "histogram::bin_lower: index out of range");
    return lo_ + width_ * static_cast<double>(i);
}

double histogram::bin_upper(std::size_t i) const {
    expects(i < counts_.size(), "histogram::bin_upper: index out of range");
    return lo_ + width_ * static_cast<double>(i + 1);
}

double histogram::cdf(double x) const {
    if (total_ == 0) return 0.0;
    if (x <= lo_) return 0.0;
    if (x >= hi_) return 1.0;
    const double pos = (x - lo_) / width_;
    const auto full_bins = static_cast<std::size_t>(pos);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < full_bins && i < counts_.size(); ++i) {
        below += counts_[i];
    }
    double frac_in_bin = 0.0;
    if (full_bins < counts_.size()) {
        frac_in_bin = (pos - static_cast<double>(full_bins)) *
                      static_cast<double>(counts_[full_bins]);
    }
    return (static_cast<double>(below) + frac_in_bin) / static_cast<double>(total_);
}

double exact_quantile(std::span<const double> samples, double q) {
    expects(!samples.empty(), "exact_quantile: empty sample set");
    expects(q >= 0.0 && q <= 1.0, "exact_quantile: q in [0,1]");
    std::vector<double> sorted(samples.begin(), samples.end());
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double empirical_cdf(std::span<const double> sorted_samples, double x) {
    if (sorted_samples.empty()) return 0.0;
    const auto it = std::upper_bound(sorted_samples.begin(), sorted_samples.end(), x);
    return static_cast<double>(it - sorted_samples.begin()) /
           static_cast<double>(sorted_samples.size());
}

}  // namespace sci
