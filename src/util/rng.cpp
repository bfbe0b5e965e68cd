#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <numeric>

namespace ppdc {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
  // xoshiro256** forbids the all-zero state; splitmix64 cannot emit four
  // consecutive zeros, but guard anyway for belt-and-braces.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  PPDC_REQUIRE(lo <= hi, "uniform_int: empty range");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  // Unbiased bounded draw via rejection sampling.
  const std::uint64_t limit = max() - max() % span;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r < limit) {
      return lo + static_cast<std::int64_t>(r % span);
    }
  }
}

double Rng::normal(double mean, double stddev) {
  PPDC_REQUIRE(stddev >= 0.0, "normal: negative stddev");
  double u, v, s;
  do {
    u = uniform_real(-1.0, 1.0);
    v = uniform_real(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return mean + stddev * u * std::sqrt(-2.0 * std::log(s) / s);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) {
    PPDC_REQUIRE(w >= 0.0, "weighted_index: negative weight");
    total += w;
  }
  return weighted_index(std::span<const double>(weights), total);
}

std::size_t Rng::weighted_index(std::span<const double> weights,
                                double total) {
  PPDC_REQUIRE(!weights.empty(), "weighted_index: empty weights");
  PPDC_REQUIRE(total > 0.0, "weighted_index: weights sum to zero");
  double x = uniform_real(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: fell off the end
}

Rng Rng::split() noexcept {
  std::uint64_t seed = (*this)();
  return Rng(seed);
}

}  // namespace ppdc
