// Seeded request sequence for the serve workload: each request carries a
// geometry class drawn from a Zipf popularity law and an input index into
// that class's sinogram pool. The same seed always yields the same sequence.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace xctbench {

/// SplitMix64: small, seedable, and identical on every platform.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed for (seed, purpose, index).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                                 std::uint64_t index = 0) {
  SeedRng r(seed ^ (purpose * 0xd1b54a32d192ed03ULL) ^
            (index * 0x8cb92ba72f3d8dd7ULL));
  return r.next();
}

struct RequestSpec {
  int cls = 0;    ///< Geometry class index.
  int input = 0;  ///< Index into the class's input pool.
};

/// Zipf weights 1/r^s for ranks r = 1..n, normalized to sum to 1.
inline std::vector<double> zipf_weights(int n, double s) {
  std::vector<double> w(static_cast<std::size_t>(n));
  double sum = 0.0;
  for (int r = 0; r < n; ++r) sum += w[static_cast<std::size_t>(r)] =
                                  1.0 / std::pow(r + 1.0, s);
  for (double& v : w) v /= sum;
  return w;
}

/// `count` requests; class i is chosen with probability weights[i], the
/// input index uniformly from [0, pool).
inline std::vector<RequestSpec> make_requests(std::uint64_t seed, int count,
                                              std::span<const double> weights,
                                              int pool) {
  SeedRng rng(derive_seed(seed, 0x5c4ed));
  std::vector<RequestSpec> out(static_cast<std::size_t>(count));
  for (RequestSpec& q : out) {
    double u = rng.uniform();
    q.cls = static_cast<int>(weights.size()) - 1;
    for (std::size_t c = 0; c < weights.size(); ++c) {
      if (u < weights[c]) {
        q.cls = static_cast<int>(c);
        break;
      }
      u -= weights[c];
    }
    q.input = static_cast<int>(rng.next() % static_cast<std::uint64_t>(pool));
  }
  return out;
}

}  // namespace xctbench
