#include "support/stats.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace alps::support {

Histogram::Histogram() = default;

int Histogram::bucket_for(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);
  // Power-of-two bucket group `msb`, sub-bucket from the next 4 bits.
  const int sub = static_cast<int>((v >> (msb - 4)) & (kSubBuckets - 1));
  const int idx = msb * kSubBuckets + sub;
  return std::min(idx, kBuckets - 1);
}

std::uint64_t Histogram::bucket_mid(int b) {
  const int msb = b / kSubBuckets;
  const int sub = b % kSubBuckets;
  if (msb < 4) return static_cast<std::uint64_t>(b);  // exact region
  const std::uint64_t base = 1ull << msb;
  const std::uint64_t step = base / kSubBuckets;
  return base + step * static_cast<std::uint64_t>(sub) + step / 2;
}

void Histogram::record(std::uint64_t v) {
  const int b = bucket_for(v);
  std::scoped_lock lock(mu_);
  ++buckets_[static_cast<std::size_t>(b)];
  ++count_;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  sum_ += static_cast<double>(v);
}

void Histogram::merge(const Histogram& other) {
  // Take a consistent snapshot of `other`, then fold it in.
  std::array<std::uint64_t, kBuckets> snap{};
  std::uint64_t ocount, omin, omax;
  double osum;
  {
    std::scoped_lock lock(other.mu_);
    snap = other.buckets_;
    ocount = other.count_;
    omin = other.min_;
    omax = other.max_;
    osum = other.sum_;
  }
  std::scoped_lock lock(mu_);
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] += snap[static_cast<std::size_t>(i)];
  }
  count_ += ocount;
  min_ = std::min(min_, omin);
  max_ = std::max(max_, omax);
  sum_ += osum;
}

std::uint64_t Histogram::count() const {
  std::scoped_lock lock(mu_);
  return count_;
}

std::uint64_t Histogram::min() const {
  std::scoped_lock lock(mu_);
  return count_ == 0 ? 0 : min_;
}

std::uint64_t Histogram::max() const {
  std::scoped_lock lock(mu_);
  return max_;
}

double Histogram::mean() const {
  std::scoped_lock lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::uint64_t Histogram::percentile(double q) const {
  std::scoped_lock lock(mu_);
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen > target) {
      // Clamp the bucket midpoint into the observed range for tight tails.
      return std::clamp(bucket_mid(b), min_, max_);
    }
  }
  return max_;
}

std::string Histogram::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "count=%llu mean=%s p50=%s p99=%s max=%s",
                static_cast<unsigned long long>(count()),
                format_ns(mean()).c_str(),
                format_ns(static_cast<double>(percentile(0.50))).c_str(),
                format_ns(static_cast<double>(percentile(0.99))).c_str(),
                format_ns(static_cast<double>(max())).c_str());
  return buf;
}

void Histogram::reset() {
  std::scoped_lock lock(mu_);
  buckets_.fill(0);
  count_ = 0;
  min_ = ~0ull;
  max_ = 0;
  sum_ = 0.0;
}

DataPlaneStats& data_plane() {
  static DataPlaneStats stats;
  return stats;
}

NetHealthStats& net_health() {
  static NetHealthStats stats;
  return stats;
}

std::string format_ns(double ns) {
  char buf[64];
  if (ns < 1000.0) {
    std::snprintf(buf, sizeof buf, "%.0fns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fus", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
  }
  return buf;
}

}  // namespace alps::support
