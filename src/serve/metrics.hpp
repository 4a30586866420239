// Service-side measurement primitives: fixed-footprint latency histograms
// and the per-priority counter block of the ServerMetrics snapshot.
//
// A serving layer that handles heavy traffic cannot keep per-request
// records; the histogram is O(1) per observation and O(40 buckets) resident
// no matter how many requests pass through — the same bounded-memory
// discipline the solvers apply to their EarlyStop ring.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace memxct::serve {

/// Log-2-bucketed latency histogram. Buckets cover [2^i, 2^(i+1)) µs for
/// i in [0, 40), i.e. 1 µs up to ~6 days; observations outside clamp to the
/// edge buckets. Quantiles are read as the upper bucket edge capped at the
/// observed max, so reported percentiles are conservative (never better
/// than reality) yet never exceed the slowest observation.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

  void record(double seconds) noexcept {
    const double us = seconds * 1e6;
    int idx = 0;
    if (us >= 1.0) {
      const auto u = static_cast<std::uint64_t>(us);
      idx = static_cast<int>(std::bit_width(u)) - 1;
      if (idx >= kBuckets) idx = kBuckets - 1;
    }
    ++counts_[static_cast<std::size_t>(idx)];
    ++count_;
    sum_ += seconds;
    if (seconds > max_) max_ = seconds;
  }

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean_seconds() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double max_seconds() const noexcept { return max_; }

  /// Upper edge (seconds) of the bucket holding the q-quantile observation,
  /// capped at max_seconds(); 0 when empty. q is clamped to (0, 1].
  [[nodiscard]] double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    if (q > 1.0) q = 1.0;
    auto target = static_cast<std::int64_t>(q * static_cast<double>(count_));
    if (target < 1) target = 1;
    std::int64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      cum += counts_[static_cast<std::size_t>(i)];
      if (cum >= target)
        return std::min(
            static_cast<double>(std::uint64_t{1} << (i + 1)) * 1e-6, max_);
    }
    return max_;
  }

 private:
  std::array<std::int64_t, kBuckets> counts_{};
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Counter block for one priority class (a slice of ServerMetrics).
struct PriorityMetrics {
  std::int64_t submitted = 0;  ///< Admitted into the queue.
  std::int64_t ok = 0;
  std::int64_t degraded = 0;  ///< Served at a lower rung / salvaged partial.
  std::int64_t ingest_rejected = 0;
  std::int64_t diverged = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;          ///< Explicit cancel().
  std::int64_t deadline_exceeded = 0;  ///< Deadline hit queued or mid-solve.
  std::int64_t rejected_queue_full = 0;   ///< Never admitted: overload.
  std::int64_t rejected_infeasible = 0;   ///< Never admitted: deadline (no
                                          ///< rung could absorb it).
  LatencyHistogram latency;  ///< submit → terminal, completed requests only.

  [[nodiscard]] std::int64_t completed() const noexcept {
    return ok + degraded + ingest_rejected + diverged + failed + cancelled +
           deadline_exceeded;
  }
};

}  // namespace memxct::serve
