#pragma once
/// \file histogram.hpp
/// \brief Fixed log-bucket latency histograms for the serving metrics path.
///
/// `log_histogram` is a fixed-size array of power-of-two buckets over
/// milliseconds: bucket i counts samples in [2^i, 2^(i+1)) microseconds
/// (bucket 0 also absorbs everything below 1 us, the last bucket everything
/// above its lower bound).  Recording is a branch-free index computation
/// plus one increment — cheap enough to sit on every request.
///
/// Neither class is internally synchronized: the owner either confines an
/// instance to one thread or guards it with its own lock (src/serve/server
/// keeps one server-wide set, fed by its span helper under one short lock).

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xsfq {

/// Log-bucket latency histogram over milliseconds.  Value semantics; fixed
/// footprint (no allocation after construction).
class log_histogram {
 public:
  /// Bucket count: 1 us (2^0 us) up to ~2.2 minutes (2^27 us), which brackets
  /// every latency this codebase produces, from a warm cache hit (~100 us)
  /// to a cold validated c6288 run on a loaded debug build.
  static constexpr std::size_t num_buckets = 28;

  /// Lower bound of bucket `i` in milliseconds: 0.001 * 2^i.
  static double bucket_lower_ms(std::size_t i);
  /// Exclusive upper bound of bucket `i` in milliseconds (lower of i+1).
  static double bucket_upper_ms(std::size_t i);
  /// The bucket a sample falls into (clamped to [0, num_buckets-1];
  /// non-positive and NaN samples land in bucket 0).
  static std::size_t bucket_index(double ms);

  /// Adds one sample.  O(1), no allocation.
  void record(double ms);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum_ms() const { return sum_ms_; }
  [[nodiscard]] double max_ms() const { return max_ms_; }
  [[nodiscard]] const std::array<std::uint64_t, num_buckets>& buckets() const {
    return buckets_;
  }

  /// Upper bound of the bucket where the cumulative count first reaches
  /// `q * count()` (q in [0,1]).  Returns 0 for an empty histogram.  A bucket
  /// bound, not an interpolation: the error is at most one octave, which is
  /// the resolution this histogram promises.
  [[nodiscard]] double quantile_ms(double q) const;

 private:
  std::array<std::uint64_t, num_buckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ms_ = 0.0;
  double max_ms_ = 0.0;
};

/// A small ordered collection of named histograms ("queue_wait",
/// "stage:optimize", ...).  Lookup is linear — the set holds a handful of
/// stage names, and `at()` sits on the request path where a hash map's
/// allocation churn would cost more than the scan.  Insertion order is
/// stable, so snapshots list histograms in first-recorded order.
class histogram_set {
 public:
  /// Find-or-create the histogram named `name`.
  log_histogram& at(std::string_view name);

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::vector<std::pair<std::string, log_histogram>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, log_histogram>> entries_;
};

}  // namespace xsfq
