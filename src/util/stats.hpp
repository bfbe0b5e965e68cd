// Streaming statistics and confidence intervals.
//
// The paper reports every data point as the average of 20 runs with a 95%
// confidence interval (§VI). `RunningStats` accumulates samples with
// Welford's algorithm (numerically stable single pass) and
// `confidence_interval_95` returns the half-width using Student's
// t-distribution for small sample counts.
#pragma once

#include <cstddef>
#include <vector>

namespace ppdc {

/// Welford single-pass accumulator for mean / variance / extremes.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance (n-1 denominator); 0 for n < 2.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Half-width of the 95% confidence interval on the mean
  /// (Student's t for n <= 30, normal approximation beyond). 0 for n < 2.
  double ci95_halfwidth() const noexcept;

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a sample vector (0 for empty input).
double mean_of(const std::vector<double>& xs) noexcept;

/// Two-sided 97.5% quantile of Student's t with `df` degrees of freedom,
/// i.e. the multiplier for a 95% CI. Exact table for df in [1,30], 1.96
/// beyond.
double t_quantile_975(std::size_t df) noexcept;

/// Summary of repeated-trial measurements: mean and 95% CI half-width.
struct MeanCi {
  double mean = 0.0;
  double ci95 = 0.0;
};

/// Computes mean and CI over a sample vector in one call.
MeanCi mean_ci(const std::vector<double>& samples) noexcept;

}  // namespace ppdc
