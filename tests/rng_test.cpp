#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
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

TEST(Rng, RawStreamIsPinned) {
  // Regression pin of the xoshiro256** stream and the two draws every
  // churn epoch makes per flow: a seeded run's workload, and with it every
  // recorded trace, is a function of exactly these bits.
  const std::uint64_t seed1[16] = {
      0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL, 0x92f89756082a4514ULL,
      0x642e1c7bc266a3a7ULL, 0xb27a48e29a233673ULL, 0x24c123126ffda722ULL,
      0x123004ef8df510e6ULL, 0x61954dcc47b1e89dULL, 0xddfdb48ab9ed4a21ULL,
      0x8d3cdb8c3aa5b1d0ULL, 0xeebd114bd87226d1ULL, 0xf50c3ff1e7d7e8a6ULL,
      0xeeca3115e23bc8f1ULL, 0xab49ed3db4c66435ULL, 0x99953c6c57808dd7ULL,
      0xe3fa941b05219325ULL};
  const std::uint64_t seed_default[16] = {
      0x422ea740d0977210ULL, 0xe062b061b42e2928ULL, 0x5a071fc5930841b6ULL,
      0x01334ef8ed3cc2bdULL, 0xe45cbd6a2d9e96dbULL, 0x3bc1fe841a5f292fULL,
      0x60001d95ebbbd8e6ULL, 0xa0aee00b5b303762ULL, 0x9e23c8d7514cf750ULL,
      0xfc79b675a1a76a3cULL, 0xd430797eb1952242ULL, 0x5d8c1e38c042f56dULL,
      0x62192f394c129095ULL, 0xb66848e210a0f50dULL, 0x2d1d2eb24edaba45ULL,
      0x794532bcac68202cULL};
  Rng one(1);
  Rng fallback;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(one(), seed1[i]) << "Rng(1) output " << i;
    EXPECT_EQ(fallback(), seed_default[i]) << "Rng() output " << i;
  }

  const double units[8] = {
      0x1.67e55eda1f8e2p-1, 0x1.0a76ab2c8e6c9p-1, 0x1.25f12eac10548p-1,
      0x1.90b871ef099a8p-2, 0x1.64f491c534466p-1, 0x1.260918937fedp-3,
      0x1.23004ef8df51p-4,  0x1.865537311ec7ap-2};
  Rng reals(1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(reals.uniform_real(0.0, 1.0), units[i]) << "draw " << i;
  }
  Rng raw_units(1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(raw_units.unit(), units[i]) << "unit() " << i;
  }

  const std::string coins =
      "0000000000000000001000000000001000000000010000000000000000000000";
  Rng flips(1);
  std::string got;
  for (int i = 0; i < 64; ++i) got += flips.bernoulli(0.05) ? '1' : '0';
  EXPECT_EQ(got, coins);
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
