// Exact order statistics, image checks and run-level helpers for the
// repository benchmark. Header-only and free of library dependencies so the
// self-tests (tests.cpp) build without the MemXCT libraries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace xctbench {

/// Nearest-rank q-quantile of raw samples: the sample of 1-based rank
/// ceil(q·n) in sorted order, so the answer is always an observed value and
/// never exceeds the sample maximum (unlike a bucketed histogram, whose
/// answer is a bucket edge). Throws on an empty set or q outside (0, 1].
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile level must lie in (0, 1]");
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps q·n that should be integral (0.95·200) from rounding
  // up to the next rank through binary representation error.
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// p50/p95/max of one sample set, with the sample count. The constructor
/// self-checks the order p50 <= p95 <= max and throws if it fails.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;

  explicit Summary(const std::vector<double>& samples)
      : count(samples.size()),
        p50(quantile(samples, 0.50)),
        p95(quantile(samples, 0.95)),
        max(*std::max_element(samples.begin(), samples.end())) {
    if (!(p50 <= p95 && p95 <= max))
      throw std::logic_error("quantile self-check failed: p50 <= p95 <= max");
  }

  /// Samples strictly above p95 — at least 10 are needed before a p95 is
  /// worth reporting.
  [[nodiscard]] std::size_t beyond_p95(
      const std::vector<double>& samples) const {
    return static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [&](double v) { return v > p95; }));
  }
};

/// FNV-1a over the image bytes: equal hashes for bitwise-equal images.
inline std::uint64_t image_hash(std::span<const float> image) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(image.data());
  for (std::size_t i = 0; i < image.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Peak signal-to-noise ratio in dB of `image` against `truth`, with the
/// reference level taken as the ground truth's RMS rather than its single
/// brightest pixel: on the seeded shale phantoms the maximum depends on which
/// grains happen to overlap and moves the conventional PSNR by up to 4 dB
/// between seeds of equal reconstruction quality, while the RMS level keeps
/// the figure within a few tenths of a dB. Returns +inf for an exact match
/// and -inf for a non-finite image.
inline double psnr_db(std::span<const float> image,
                      std::span<const float> truth) {
  if (image.size() != truth.size() || truth.empty())
    throw std::invalid_argument("psnr: size mismatch");
  double energy = 0.0;
  double se = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double t = truth[i];
    const double d = static_cast<double>(image[i]) - t;
    energy += t * t;
    se += d * d;
  }
  if (!std::isfinite(se)) return -std::numeric_limits<double>::infinity();
  if (se == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(energy / se);
}

}  // namespace xctbench
