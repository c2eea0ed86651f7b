#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/flags.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace dls {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(11);
  const auto perm = rng.permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng b = a.fork();
  EXPECT_NE(a(), b());
}

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(Stats, LinearFitExact) {
  const LinearFit f = fit_linear({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, PowerFitRecoversExponent) {
  std::vector<double> x, y;
  for (double v : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    x.push_back(v);
    y.push_back(3.0 * std::pow(v, 1.5));
  }
  const PowerFit f = fit_power(x, y);
  EXPECT_NEAR(f.exponent, 1.5, 1e-9);
  EXPECT_NEAR(f.constant, 3.0, 1e-9);
}

TEST(Stats, FitRequiresMatchingSizes) {
  EXPECT_THROW(fit_linear({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Stats, ConstantSeriesFitsPerfectly) {
  // Zero total variance with a perfect fit: r² is 1, not 0/0 garbage.
  const LinearFit f = fit_linear({1, 2, 3, 4}, {5, 5, 5, 5});
  EXPECT_NEAR(f.slope, 0.0, 1e-12);
  EXPECT_NEAR(f.intercept, 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(f.r2, 1.0);
}

TEST(Stats, DegenerateXReportsNoFit) {
  // All-equal x: slope is undefined and the mean-line "fit" leaves real
  // residuals, so r² must be 0, never 1 (this used to report a perfect fit).
  const LinearFit f = fit_linear({2, 2, 2}, {1, 5, 9});
  EXPECT_NEAR(f.slope, 0.0, 1e-12);
  EXPECT_NEAR(f.intercept, 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(f.r2, 0.0);
}

TEST(Stats, SummaryExcludesAndFlagsNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Summary s = summarize({1.0, nan, 3.0, inf, 2.0, -inf});
  EXPECT_FALSE(s.finite);
  EXPECT_EQ(s.non_finite, 3u);
  EXPECT_EQ(s.count, 6u);  // total inputs, poisoned ones included
  // Statistics describe the finite subset {1, 2, 3}.
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(Stats, SummaryAllNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Summary s = summarize({nan, nan});
  EXPECT_FALSE(s.finite);
  EXPECT_EQ(s.non_finite, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);  // defaults, not NaN
}

TEST(Stats, LinearFitSkipsAndFlagsNonFinitePairs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // The poisoned pairs sit on a different line; excluding them must recover
  // the clean fit exactly.
  const LinearFit f =
      fit_linear({1, 2, nan, 3, 4, 5}, {3, 5, 100.0, 7, inf, 11});
  EXPECT_FALSE(f.finite);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitAllPoisonedReturnsZeroNotNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const LinearFit f = fit_linear({nan, nan, nan}, {1.0, 2.0, 3.0});
  EXPECT_FALSE(f.finite);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_DOUBLE_EQ(f.intercept, 0.0);
  EXPECT_DOUBLE_EQ(f.r2, 0.0);  // never reports a fit it did not make
}

TEST(Stats, PowerFitSkipsAndFlagsNonFinitePairs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x, y;
  for (double v : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    x.push_back(v);
    y.push_back(3.0 * std::pow(v, 1.5));
  }
  x.push_back(64.0);
  y.push_back(nan);
  const PowerFit f = fit_power(x, y);
  EXPECT_FALSE(f.finite);
  EXPECT_NEAR(f.exponent, 1.5, 1e-9);
  EXPECT_NEAR(f.constant, 3.0, 1e-9);
}

TEST(Stats, CleanSeriesStayFlaggedFinite) {
  EXPECT_TRUE(summarize({1.0, 2.0}).finite);
  EXPECT_TRUE(fit_linear({1, 2, 3}, {1, 2, 3}).finite);
  EXPECT_TRUE(fit_power({1, 2, 4}, {1, 2, 4}).finite);
}

TEST(Table, RendersAlignedRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream out;
  t.print(out);
  EXPECT_NE(out.str().find("| a | bb |"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Flags, ParsesBothSyntaxes) {
  const char* argv[] = {"prog", "--n", "32", "--eps=0.5", "--verbose"};
  Flags flags(5, argv, {"n", "eps", "verbose", "missing"});
  EXPECT_EQ(flags.get_int("n", 0), 32);
  EXPECT_DOUBLE_EQ(flags.get_double("eps", 0.0), 0.5);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("missing", 7), 7);
}

// A bad command line ends the process with one `error:` line naming the
// flag and exit status 2, in every binary that parses flags.
TEST(Flags, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_EXIT(Flags(2, argv, {"oops"}), ::testing::ExitedWithCode(2),
              "error: flags must start with --: oops");
}

TEST(Flags, RejectsUnknownFlag) {
  const std::vector<std::string> accepted{"supervisor", "threads"};
  const char* spaced[] = {"prog", "--threads", "2", "--supervsior", "retry"};
  const char* joined[] = {"prog", "--supervsior=retry", "--threads=2"};
  EXPECT_EXIT(Flags(5, spaced, accepted), ::testing::ExitedWithCode(2),
              "error: unknown flag: --supervsior");
  EXPECT_EXIT(Flags(3, joined, accepted), ::testing::ExitedWithCode(2),
              "error: unknown flag: --supervsior");
  const char* known[] = {"prog", "--supervisor=retry", "--threads", "2"};
  const Flags flags(4, known, accepted);
  EXPECT_EQ(flags.get("supervisor", "off"), "retry");
  EXPECT_EQ(flags.get_int("threads", 1), 2);
}

TEST(Flags, RejectsNonNumericValue) {
  const char* argv[] = {"prog", "--threads", "x", "--rows=12abc", "--eps",
                        "tiny", "--seed", "-3", "--tol=1e-8"};
  const Flags flags(9, argv, {"threads", "rows", "eps", "seed", "tol"});
  EXPECT_EXIT(flags.get_int("threads", 1), ::testing::ExitedWithCode(2),
              "error: --threads expects an integer, got 'x'");
  EXPECT_EXIT(flags.get_int("rows", 16), ::testing::ExitedWithCode(2),
              "error: --rows expects an integer, got '12abc'");
  EXPECT_EXIT(flags.get_double("eps", 1e-8), ::testing::ExitedWithCode(2),
              "error: --eps expects a number, got 'tiny'");
  EXPECT_EQ(flags.get_int("seed", 7), -3);
  EXPECT_EQ(flags.get_double("tol", 0.0), 1e-8);
}

TEST(Flags, RejectsValueOutsideChoices) {
  const char* argv[] = {"prog", "--supervisor", "bogus", "--model=ncc"};
  const Flags flags(4, argv, {"supervisor", "model"});
  EXPECT_EXIT(flags.get_choice("supervisor", "off", {"off", "retry"}),
              ::testing::ExitedWithCode(2),
              "error: --supervisor expects off\\|retry, got 'bogus'");
  EXPECT_EQ(flags.get_choice("model", "all", {"ncc", "all"}), "ncc");
  EXPECT_EQ(flags.get_choice("missing", "all", {"ncc", "all"}), "all");
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPool, InlinePoolRunsSubmissionsInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0u);  // no threads spawned: inline mode
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(order.empty());  // nothing runs until wait_idle
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SubmitAndWaitIdleCompletesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, NestedParallelForDegradesToSerialWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    // Nested use from a worker: must run serially, not hang.
    pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, ParallelForEachWithNullPoolRunsInIndexOrder) {
  std::vector<std::size_t> order;
  parallel_for_each(nullptr, 6, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPool, PoolDestructionDrainsOutstandingWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) pool.submit([&done] { done.fetch_add(1); });
  }  // ~ThreadPool waits for idle before joining
  EXPECT_EQ(done.load(), 20);
}

}  // namespace
}  // namespace dls
