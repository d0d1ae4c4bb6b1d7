// The batched draw pipeline's determinism contract, pinned bitwise:
//
//   * Rng::fill_* emit exactly the sequence of the matching scalar calls.
//   * The resampling fast paths (bootstrap_mean, permutation mean-diff,
//     AliasTable::sample_batch, bernoulli_mask) reproduce their generic
//     counterparts byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "stats/permutation.hpp"
#include "util/rng.hpp"

namespace rcr {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(v));
  return b;
}

TEST(RngBatchTest, FillU64MatchesScalarLoop) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1000}}) {
    Rng scalar(123), batched(123);
    std::vector<std::uint64_t> out(n);
    batched.fill_u64(out);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out[i], scalar.next_u64()) << "n=" << n << " i=" << i;
    // Streams stay in lockstep after the fill.
    EXPECT_EQ(batched.next_u64(), scalar.next_u64());
  }
}

TEST(RngBatchTest, FillDoubleMatchesScalarLoop) {
  Rng scalar(9), batched(9);
  std::vector<double> out(513);
  batched.fill_double(out);
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(bits_of(out[i]), bits_of(scalar.next_double())) << i;
}

TEST(RngBatchTest, FillBelowMatchesScalarLoop) {
  // Small, typical, and rejection-heavy bounds; the last rejects ~half of
  // all raw draws, exercising the redraw path.
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{1000},
        (std::uint64_t{1} << 63) + 1}) {
    Rng scalar(77), batched(77);
    std::vector<std::uint64_t> out(777);
    batched.fill_below(bound, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_LT(out[i], bound);
      ASSERT_EQ(out[i], scalar.next_below(bound))
          << "bound=" << bound << " i=" << i;
    }
    EXPECT_EQ(batched.next_u64(), scalar.next_u64()) << "bound=" << bound;
  }
}

TEST(RngBatchTest, BernoulliMaskMatchesSequentialCoins) {
  Rng scalar(5), batched(5);
  // Interior, degenerate-zero, degenerate-one, clamped-out-of-range.
  const std::vector<double> p = {0.3, 0.0, 1.0,  0.99, -0.5, 1.5,
                                 0.5, 0.0, 0.01, 0.62, 1.0,  0.4};
  for (int round = 0; round < 8; ++round) {
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < p.size(); ++i)
      if (scalar.bernoulli(p[i])) expected |= std::uint64_t{1} << i;
    EXPECT_EQ(batched.bernoulli_mask(p), expected) << "round=" << round;
  }
  // Both consumed the same number of draws.
  EXPECT_EQ(batched.next_u64(), scalar.next_u64());
}

TEST(RngBatchTest, BufferedDrawsMatchDirectDraws) {
  Rng direct(31);
  Rng buffered_src(31);
  BufferedDraws draws(buffered_src, 300);
  for (std::size_t i = 0; i < 300; ++i) {
    if (i % 3 == 0) {
      ASSERT_EQ(draws.take(), direct.next_u64()) << i;
    } else {
      const std::uint64_t bound = 10 + i;
      ASSERT_EQ(draws.take_below(bound), direct.next_below(bound)) << i;
    }
  }
}

TEST(RngBatchTest, AliasSampleBatchMatchesRepeatedSample) {
  std::vector<double> weights = {0.5, 3.0, 1.25, 0.05, 2.0, 0.7};
  AliasTable table(weights);
  Rng one(13), many(13);
  std::vector<std::size_t> out(400);
  table.sample_batch(many, out);
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], table.sample(one)) << i;
  EXPECT_EQ(many.next_u64(), one.next_u64());
}

TEST(RngBatchTest, BootstrapMeanFastPathMatchesGenericBitwise) {
  std::vector<double> data(257);
  Rng rng(1);
  for (auto& v : data) v = rng.normal() * 1e3 + rng.next_double();

  stats::BootstrapOptions opts;
  opts.replicates = 400;
  opts.seed = 17;
  opts.compute_bca = true;

  const auto generic = stats::bootstrap(
      data, [](std::span<const double> x) { return stats::mean(x); }, opts);
  const auto fast = stats::bootstrap_mean(data, opts);

  ASSERT_EQ(fast.replicates.size(), generic.replicates.size());
  for (std::size_t i = 0; i < generic.replicates.size(); ++i)
    ASSERT_EQ(bits_of(fast.replicates[i]), bits_of(generic.replicates[i]))
        << i;
  EXPECT_EQ(bits_of(fast.estimate), bits_of(generic.estimate));
  EXPECT_EQ(bits_of(fast.std_error), bits_of(generic.std_error));
  EXPECT_EQ(bits_of(fast.percentile_ci.lo), bits_of(generic.percentile_ci.lo));
  EXPECT_EQ(bits_of(fast.percentile_ci.hi), bits_of(generic.percentile_ci.hi));
  EXPECT_EQ(bits_of(fast.basic_ci.lo), bits_of(generic.basic_ci.lo));
  EXPECT_EQ(bits_of(fast.basic_ci.hi), bits_of(generic.basic_ci.hi));
  EXPECT_EQ(bits_of(fast.bca_ci.lo), bits_of(generic.bca_ci.lo));
  EXPECT_EQ(bits_of(fast.bca_ci.hi), bits_of(generic.bca_ci.hi));
}

TEST(RngBatchTest, BootstrapMeanFastPathMatchesGenericPooled) {
  std::vector<double> data(300);
  Rng rng(2);
  for (auto& v : data) v = rng.normal();

  parallel::ThreadPool pool(4);
  stats::BootstrapOptions opts;
  opts.replicates = 350;
  opts.seed = 23;
  opts.pool = &pool;

  const auto generic = stats::bootstrap(
      data, [](std::span<const double> x) { return stats::mean(x); }, opts);
  const auto fast = stats::bootstrap_mean(data, opts);
  ASSERT_EQ(fast.replicates.size(), generic.replicates.size());
  for (std::size_t i = 0; i < generic.replicates.size(); ++i)
    ASSERT_EQ(bits_of(fast.replicates[i]), bits_of(generic.replicates[i]))
        << i;
}

TEST(RngBatchTest, BootstrapProportionUsesFastPathBitwise) {
  std::vector<double> data(200);
  Rng rng(3);
  for (auto& v : data) v = rng.bernoulli(0.37) ? 1.0 : 0.0;

  stats::BootstrapOptions opts;
  opts.replicates = 250;
  opts.seed = 29;

  const auto generic = stats::bootstrap(
      data, [](std::span<const double> x) { return stats::mean(x); }, opts);
  const auto prop = stats::bootstrap_proportion(data, opts);
  for (std::size_t i = 0; i < generic.replicates.size(); ++i)
    ASSERT_EQ(bits_of(prop.replicates[i]), bits_of(generic.replicates[i]))
        << i;
  EXPECT_EQ(bits_of(prop.percentile_ci.lo), bits_of(generic.percentile_ci.lo));
  EXPECT_EQ(bits_of(prop.percentile_ci.hi), bits_of(generic.percentile_ci.hi));
}

TEST(RngBatchTest, PermutationMeanDiffFastPathMatchesGenericBitwise) {
  std::vector<double> x(90), y(110);
  Rng rng(4);
  for (auto& v : x) v = rng.normal() * 10.0;
  for (auto& v : y) v = rng.normal() * 10.0 + 1.5;

  stats::PermutationOptions opts;
  opts.permutations = 500;
  opts.seed = 37;

  const auto generic = stats::permutation_test(
      x, y,
      [](std::span<const double> a, std::span<const double> b) {
        return stats::mean(a) - stats::mean(b);
      },
      opts);
  const auto fast = stats::permutation_test_mean_diff(x, y, opts);

  EXPECT_EQ(bits_of(fast.observed), bits_of(generic.observed));
  EXPECT_EQ(bits_of(fast.p_value), bits_of(generic.p_value));
  EXPECT_EQ(bits_of(fast.p_greater), bits_of(generic.p_greater));
  EXPECT_EQ(bits_of(fast.p_less), bits_of(generic.p_less));

  // And the same under a pool.
  parallel::ThreadPool pool(4);
  stats::PermutationOptions pooled_opts = opts;
  pooled_opts.pool = &pool;
  const auto pooled = stats::permutation_test_mean_diff(x, y, pooled_opts);
  EXPECT_EQ(bits_of(pooled.p_value), bits_of(generic.p_value));
  EXPECT_EQ(bits_of(pooled.p_greater), bits_of(generic.p_greater));
  EXPECT_EQ(bits_of(pooled.p_less), bits_of(generic.p_less));
}

}  // namespace
}  // namespace rcr
