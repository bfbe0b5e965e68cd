#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace ppdc {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  const double se = stddev() / std::sqrt(static_cast<double>(n_));
  return t_quantile_975(n_ - 1) * se;
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double mean_of(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double t_quantile_975(std::size_t df) noexcept {
  // Standard two-sided 95% Student-t critical values, df = 1..30.
  static constexpr std::array<double, 30> kTable = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return std::numeric_limits<double>::infinity();
  if (df <= kTable.size()) return kTable[df - 1];
  return 1.960;
}

MeanCi mean_ci(const std::vector<double>& samples) noexcept {
  RunningStats rs;
  for (const double x : samples) rs.add(x);
  return MeanCi{rs.mean(), rs.ci95_halfwidth()};
}

}  // namespace ppdc
