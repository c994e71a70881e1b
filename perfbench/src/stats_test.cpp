// Tests of the benchmark's own statistics. Expected quartiles are the
// output of Python's statistics.quantiles(values, n=4) on the same data.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile_sorted(v, 0.50), 50.0);
  EXPECT_EQ(percentile_sorted(v, 0.95), 95.0);
  EXPECT_EQ(percentile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(percentile_sorted(v, 1.00), 100.0);
  EXPECT_EQ(percentile_sorted({7.0}, 0.99), 7.0);
  EXPECT_THROW(percentile_sorted({}, 0.5), std::invalid_argument);
}

TEST(Percentile, SampleSortsAndReadsZeroWhenEmpty) {
  Sample s;
  EXPECT_EQ(s.percentile(0.5), 0.0);
  for (double x : {5.0, 1.0, 4.0, 2.0, 3.0}) s.add(x);
  EXPECT_EQ(s.percentile(0.5), 3.0);
  EXPECT_EQ(s.percentile(0.99), 5.0);
  s.add(0.5);
  EXPECT_EQ(s.percentile(0.01), 0.5);
}

TEST(TrimmedMean, DropsTheLargestShare) {
  EXPECT_EQ(mean_of_lowest({}, 0.95), 0.0);
  EXPECT_EQ(mean_of_lowest({4.0}, 0.95), 4.0);
  // Two values: ceil(0.95 * 2) = 2 kept.
  EXPECT_EQ(mean_of_lowest({3.0, 1.0}, 0.95), 2.0);
  // Forty values 1..40: ceil(38) = 38 kept, 39 and 40 dropped.
  std::vector<double> v;
  for (int i = 40; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(mean_of_lowest(v, 0.95), 19.5);
  EXPECT_DOUBLE_EQ(mean_of_lowest(v, 1.0), 20.5);
  EXPECT_EQ(mean_of_lowest(v, 0.001), 1.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 of n samples has n - ceil(0.99 n) beyond it.
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(199, 0.95));
  EXPECT_TRUE(percentile_supported(200, 0.95));
  EXPECT_TRUE(percentile_supported(20, 0.50));
  EXPECT_FALSE(percentile_supported(19, 0.50));
  EXPECT_FALSE(percentile_supported(0, 0.50));
  Sample s;
  for (int i = 0; i < 1000; ++i) s.add(i);
  EXPECT_TRUE(s.supports(0.99));
}

TEST(Percentile, MedianAndWindows) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  // Three windows of 100; the middle one holds a stall. Per-window p99s
  // are 99, 1099 and 499; their median is reported.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w)
    for (int i = 1; i <= 100; ++i) v.push_back(i + (w == 1 ? 1000 : 200 * w));
  EXPECT_EQ(windowed_percentile(v, 0.99, 3), 499.0);
  EXPECT_EQ(windowed_percentile(v, 0.50, 1), 450.0);
  v.push_back(5000.0);  // the remainder joins the last window
  EXPECT_EQ(windowed_percentile(v, 1.00, 3), 1100.0);
  EXPECT_THROW(windowed_percentile({1.0}, 0.5, 2), std::invalid_argument);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  const auto a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a[0], 2.75);
  EXPECT_DOUBLE_EQ(a[1], 5.5);
  EXPECT_DOUBLE_EQ(a[2], 8.25);
  const auto b = quartiles({3.5, 1.25, 9.0, 2.0});  // unsorted input
  EXPECT_DOUBLE_EQ(b[0], 1.4375);
  EXPECT_DOUBLE_EQ(b[1], 2.75);
  EXPECT_DOUBLE_EQ(b[2], 7.625);
  const auto c = quartiles({5.0, 1.0});  // clamped indices extrapolate
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
  EXPECT_DOUBLE_EQ(c[2], 6.0);
  const auto d = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], 6.0);
  EXPECT_DOUBLE_EQ(d[2], 9.0);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Ledger, FailFracAccounting) {
  OutcomeLedger ledger;
  for (int i = 0; i < 10; ++i) ledger.attempt();
  for (int i = 0; i < 6; ++i) ledger.record(Outcome::kOk);
  ledger.record(Outcome::kLate);
  ledger.record(Outcome::kRejected);
  ledger.record(Outcome::kShed);
  EXPECT_FALSE(ledger.balanced());  // one attempt still unresolved
  ledger.record(Outcome::kErrored);
  EXPECT_TRUE(ledger.balanced());
  EXPECT_EQ(ledger.attempted(), 10u);
  EXPECT_EQ(ledger.failed(), 4u);
  EXPECT_DOUBLE_EQ(ledger.fail_frac(), 0.4);
  EXPECT_DOUBLE_EQ(ledger.ok_frac(), 0.6);
  ledger.attempt();
  ledger.record(Outcome::kFinished);  // a finished vehicle is a failure too
  EXPECT_EQ(ledger.failed(), 5u);
  EXPECT_EQ(ledger.count(Outcome::kFinished), 1u);
  EXPECT_DOUBLE_EQ(OutcomeLedger{}.fail_frac(), 0.0);
}

}  // namespace
}  // namespace perfbench
