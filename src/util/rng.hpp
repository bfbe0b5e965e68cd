// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the library (workload generation, tie
// breaking, weighted topologies) draw from ppdc::Rng so that every
// experiment is reproducible from a single 64-bit seed. The generator is
// xoshiro256** seeded through splitmix64, which is the standard
// recommendation of the xoshiro authors and is far cheaper than
// std::mt19937_64 while passing BigCrush.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/require.hpp"

namespace ppdc {

/// splitmix64 step; used for seeding and for cheap hash-style mixing.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** generator with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator so it can also be handed to
/// <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64-bit value. Inline, like the draws below: the streaming
  /// workload calls them once per flow per epoch.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform real in [0, 1): the top 53 bits of one raw value. It is
  /// uniform_real(0, 1) and the draw under bernoulli() bit for bit, for a
  /// caller that checked its bounds once ahead of many draws.
  double unit() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi) {
    PPDC_REQUIRE(lo <= hi, "uniform_real: empty range");
    return lo + unit() * (hi - lo);
  }

  /// Bernoulli draw with success probability p in [0, 1].
  bool bernoulli(double p) {
    PPDC_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli: p outside [0,1]");
    return unit() < p;
  }

  /// Normal draw via Marsaglia polar method.
  double normal(double mean, double stddev);

  /// Index in [0, weights.size()) drawn proportionally to `weights`.
  /// Weights must be non-negative with a positive sum.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// The same draw for a caller that validated `weights` and summed them
  /// left to right into `total` once, ahead of many draws: returns what
  /// weighted_index(weights) would, without the per-draw pass.
  std::size_t weighted_index(std::span<const double> weights, double total);

  /// Fisher–Yates shuffle of an index-addressable container.
  template <typename Container>
  void shuffle(Container& c) {
    if (c.size() < 2) return;
    for (std::size_t i = c.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i)));
      using std::swap;
      swap(c[i], c[j]);
    }
  }

  /// Derives an independent child generator (for per-trial streams).
  Rng split() noexcept;

  /// The full generator state (part of the streaming workload snapshot
  /// that fingerprints an epoch-journaled run, sim/checkpoint.hpp).
  std::array<std::uint64_t, 4> state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace ppdc
