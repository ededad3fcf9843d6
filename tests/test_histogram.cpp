/// Tests for util/histogram: the fixed log-bucket latency histogram behind
/// the serve daemon's server_stats scrape — bucket boundary math, recording,
/// quantiles, and the named histogram_set.
#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace xsfq {
namespace {

TEST(LogHistogram, BucketBoundaryMath) {
  // Bucket i spans [2^i, 2^(i+1)) microseconds.
  EXPECT_DOUBLE_EQ(log_histogram::bucket_lower_ms(0), 0.001);
  EXPECT_DOUBLE_EQ(log_histogram::bucket_upper_ms(0), 0.002);
  EXPECT_DOUBLE_EQ(log_histogram::bucket_lower_ms(10), 1.024);
  EXPECT_DOUBLE_EQ(log_histogram::bucket_upper_ms(10), 2.048);

  // Sub-microsecond, zero, negative, and NaN all land in bucket 0 instead
  // of indexing out of range.
  EXPECT_EQ(log_histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(log_histogram::bucket_index(-3.0), 0u);
  EXPECT_EQ(log_histogram::bucket_index(0.0005), 0u);
  EXPECT_EQ(log_histogram::bucket_index(
                std::numeric_limits<double>::quiet_NaN()),
            0u);

  // Exact powers of two microseconds open their own bucket.
  EXPECT_EQ(log_histogram::bucket_index(0.001), 0u);   // 1 us
  EXPECT_EQ(log_histogram::bucket_index(0.002), 1u);   // 2 us
  EXPECT_EQ(log_histogram::bucket_index(0.0039), 1u);  // just under 4 us
  EXPECT_EQ(log_histogram::bucket_index(0.004), 2u);
  EXPECT_EQ(log_histogram::bucket_index(1.024), 10u);  // 1.024 ms
  EXPECT_EQ(log_histogram::bucket_index(1000.0), 19u);  // ~1 s

  // The top bucket absorbs everything beyond the covered range.
  EXPECT_EQ(log_histogram::bucket_index(1e12),
            log_histogram::num_buckets - 1);
  EXPECT_EQ(log_histogram::bucket_index(
                std::numeric_limits<double>::infinity()),
            log_histogram::num_buckets - 1);

  // Every bucket's lower bound indexes back to itself (self-consistency).
  for (std::size_t i = 0; i < log_histogram::num_buckets; ++i) {
    EXPECT_EQ(log_histogram::bucket_index(log_histogram::bucket_lower_ms(i)),
              i)
        << i;
  }
}

TEST(LogHistogram, RecordAndAccessors) {
  log_histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.record(1.5);   // bucket 10 ([1.024, 2.048) ms)
  h.record(1.9);   // same bucket
  h.record(100.0); // bucket 16
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum_ms(), 103.4);
  EXPECT_DOUBLE_EQ(h.max_ms(), 100.0);
  EXPECT_EQ(h.buckets()[10], 2u);
  EXPECT_EQ(h.buckets()[16], 1u);
}

TEST(LogHistogram, QuantileReturnsBucketUpperBound) {
  log_histogram h;
  EXPECT_DOUBLE_EQ(h.quantile_ms(0.5), 0.0);  // empty: no estimate
  for (int i = 0; i < 90; ++i) h.record(1.5);    // bucket 10
  for (int i = 0; i < 10; ++i) h.record(1000.0); // bucket 19
  // p50 sits in the dense bucket, p99 in the tail bucket; the estimate is
  // the containing bucket's upper bound (conservative).
  EXPECT_DOUBLE_EQ(h.quantile_ms(0.5), log_histogram::bucket_upper_ms(10));
  EXPECT_DOUBLE_EQ(h.quantile_ms(0.99), log_histogram::bucket_upper_ms(19));
}

TEST(HistogramSet, FindOrCreate) {
  histogram_set live;
  live.at("queue_wait").record(0.1);
  live.at("queue_wait").record(0.2);
  live.at("stage:optimize").record(25.0);
  EXPECT_EQ(live.entries().size(), 2u);
  EXPECT_EQ(live.at("queue_wait").count(), 2u);
}

}  // namespace
}  // namespace xsfq
