#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace xsfq {

double log_histogram::bucket_lower_ms(std::size_t i) {
  return 0.001 * static_cast<double>(std::uint64_t{1} << i);
}

double log_histogram::bucket_upper_ms(std::size_t i) {
  return bucket_lower_ms(i + 1);
}

std::size_t log_histogram::bucket_index(double ms) {
  if (!(ms > 0.001)) return 0;  // also catches NaN and sub-microsecond
  // floor(log2(ms / 0.001)): ilogb is exact for the power-of-two boundaries
  // doubles can represent, so 0.002 lands in bucket 1, not bucket 0.
  const int exp = std::ilogb(ms * 1000.0);
  if (exp <= 0) return 0;
  return std::min<std::size_t>(static_cast<std::size_t>(exp),
                               num_buckets - 1);
}

void log_histogram::record(double ms) {
  ++buckets_[bucket_index(ms)];
  ++count_;
  if (ms > 0.0 && !std::isnan(ms)) {
    sum_ms_ += ms;
    max_ms_ = std::max(max_ms_, ms);
  }
}

double log_histogram::quantile_ms(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < num_buckets; ++i) {
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) >= target) return bucket_upper_ms(i);
  }
  return bucket_upper_ms(num_buckets - 1);
}

log_histogram& histogram_set::at(std::string_view name) {
  for (auto& [key, hist] : entries_) {
    if (key == name) return hist;
  }
  entries_.emplace_back(std::string(name), log_histogram{});
  return entries_.back().second;
}

}  // namespace xsfq
