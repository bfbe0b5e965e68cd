#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace ppdc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(42, 42), 42);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.uniform_int(0, 9));
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), PpdcError);
}

TEST(Rng, UniformRealInHalfOpenInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformRealMeanIsCentered) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform_real(0.0, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliRejectsBadProbability) {
  Rng rng(1);
  EXPECT_THROW(rng.bernoulli(-0.1), PpdcError);
  EXPECT_THROW(rng.bernoulli(1.1), PpdcError);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, WeightedIndexHonoursWeights) {
  Rng rng(21);
  std::vector<double> w{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index(w)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng(1);
  std::vector<double> empty;
  EXPECT_THROW(rng.weighted_index(empty), PpdcError);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), PpdcError);
  std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(negative), PpdcError);
}

TEST(Rng, WeightedIndexWithTotalDrawsTheSameSequence) {
  // Zipf weights as VmFlowSampler builds them, summed once left to right.
  std::vector<double> w;
  double total = 0.0;
  for (int rank = 1; rank <= 144; ++rank) {
    w.push_back(std::pow(static_cast<double>(rank), -1.2));
    total += w.back();
  }
  Rng plain(77);
  Rng with_total(77);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(plain.weighted_index(w), with_total.weighted_index(w, total))
        << "draw " << i;
  }
  EXPECT_EQ(plain(), with_total());  // same number of draws consumed
  const std::vector<double> empty;
  EXPECT_THROW(with_total.weighted_index(empty, 1.0), PpdcError);
  EXPECT_THROW(with_total.weighted_index(w, 0.0), PpdcError);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(31);
  Rng child = a.split();
  // The child stream should not replay the parent stream.
  Rng parent_copy(31);
  (void)parent_copy();  // consume the value used to derive the child
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == parent_copy()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  // Regression pin: documented first output of splitmix64 with seed 0.
  EXPECT_EQ(a, 0xE220A8397B1DCDAFULL);
}

}  // namespace
}  // namespace ppdc
