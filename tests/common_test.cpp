// Unit tests for the common substrate: RNG statistical sanity, binomial
// sampler regimes, table emission, env parsing, and running statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "common/csv.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/stats.h"

namespace winofault {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000000007ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], expected, 5 * std::sqrt(expected)) << "bucket " << b;
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.next_gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

// The fault-injection regime: huge trial counts, tiny p -> Poisson branch.
TEST(Rng, BinomialSmallMeanMatchesPoisson) {
  Rng rng(19);
  const std::int64_t trials = 2'000'000'000LL;
  const double p = 1e-9;  // mean = 2
  RunningStats stats;
  for (int i = 0; i < 20000; ++i)
    stats.add(static_cast<double>(rng.binomial(trials, p)));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.variance(), 2.0, 0.15);  // Poisson: var == mean
}

TEST(Rng, BinomialExactRegime) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i)
    stats.add(static_cast<double>(rng.binomial(40, 0.25)));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.variance(), 7.5, 0.3);
}

TEST(Rng, BinomialLargeMeanNormalApprox) {
  Rng rng(29);
  RunningStats stats;
  const std::int64_t trials = 1'000'000;
  const double p = 0.001;  // mean 1000
  for (int i = 0; i < 5000; ++i)
    stats.add(static_cast<double>(rng.binomial(trials, p)));
  EXPECT_NEAR(stats.mean(), 1000.0, 2.5);
  EXPECT_NEAR(stats.stddev(), std::sqrt(999.0), 2.0);
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(31);
  EXPECT_EQ(rng.binomial(0, 0.5), 0);
  EXPECT_EQ(rng.binomial(100, 0.0), 0);
  EXPECT_EQ(rng.binomial(100, 1.0), 100);
  EXPECT_EQ(rng.binomial(-5, 0.5), 0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next() == child.next();
  EXPECT_LT(same, 2);
}

TEST(Table, CsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"x"});  // short row is padded
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\nx,\n");
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, AlignedContainsHeaderRule) {
  Table t({"col", "value"});
  t.add_row({"r1", "3.14"});
  const std::string s = t.to_aligned();
  EXPECT_NE(s.find("col"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_sci(0.000321, 1), "3.2e-04");
}

TEST(Env, ParsesAndFallsBack) {
  int parsed = 7;
  EXPECT_TRUE(parse_int("42", &parsed));
  EXPECT_EQ(parsed, 42);
  EXPECT_TRUE(parse_int("2147483647", &parsed));
  EXPECT_EQ(parsed, 2147483647);
  EXPECT_TRUE(parse_int("-2147483648", &parsed));
  EXPECT_EQ(parsed, -2147483647 - 1);
  // Empty text, trailing characters and a value outside int's range are
  // unparsable and leave the output alone: nothing is ever narrowed.
  for (const char* bad : {"", "xyz", "2x", "4294967298", "-4294967298",
                          "2147483648"}) {
    parsed = 7;
    EXPECT_FALSE(parse_int(bad, &parsed)) << bad;
    EXPECT_EQ(parsed, 7) << bad;
  }
  ::setenv("WF_TEST_STR", "v", 1);
  EXPECT_EQ(env_string("WF_TEST_STR", "d"), "v");
  EXPECT_EQ(env_string("WF_TEST_UNSET_XYZ", "d"), "d");
}

TEST(Stats, RunningMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
}

TEST(Stats, LineFitRecoversSlope) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 7.0);
  }
  const LineFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(Stats, PearsonSigns) {
  std::vector<double> xs = {1, 2, 3, 4}, up = {2, 4, 6, 8},
                      down = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, up), 1.0, 1e-9);
  EXPECT_NEAR(pearson(xs, down), -1.0, 1e-9);
}

}  // namespace
}  // namespace winofault
