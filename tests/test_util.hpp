// Shared helpers for the MemXCT test suite.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "sparse/csr.hpp"

namespace memxct::testutil {

/// Random CSR matrix with approximately `density` fill.
inline sparse::CsrMatrix random_csr(idx_t rows, idx_t cols, double density,
                                    std::uint64_t seed) {
  Rng rng(seed);
  sparse::CsrBuilder b(rows, cols);
  std::vector<std::pair<idx_t, real>> entries;
  for (idx_t r = 0; r < rows; ++r) {
    entries.clear();
    for (idx_t c = 0; c < cols; ++c)
      if (rng.uniform() < density)
        entries.emplace_back(c, static_cast<real>(rng.uniform(-2.0, 2.0)));
    b.set_row(r, entries);
  }
  return b.assemble();
}

/// Banded matrix whose rows touch a compact column window — structurally
/// similar to a Hilbert-ordered projection matrix (compact footprints).
inline sparse::CsrMatrix banded_csr(idx_t rows, idx_t cols, idx_t bandwidth,
                                    std::uint64_t seed) {
  Rng rng(seed);
  sparse::CsrBuilder b(rows, cols);
  std::vector<std::pair<idx_t, real>> entries;
  for (idx_t r = 0; r < rows; ++r) {
    entries.clear();
    const idx_t center = static_cast<idx_t>(
        static_cast<std::int64_t>(r) * cols / (rows > 0 ? rows : 1));
    for (idx_t d = -bandwidth; d <= bandwidth; ++d) {
      const idx_t c = center + d;
      if (c >= 0 && c < cols && rng.uniform() < 0.6)
        entries.emplace_back(c, static_cast<real>(rng.uniform(0.1, 1.0)));
    }
    b.set_row(r, entries);
  }
  return b.assemble();
}

/// Random vector in [-1, 1).
inline AlignedVector<real> random_vector(idx_t n, std::uint64_t seed) {
  Rng rng(seed);
  AlignedVector<real> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<real>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Max absolute difference between two vectors.
inline double max_abs_diff(std::span<const real> a, std::span<const real> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  return m;
}

/// True when two vectors (of any container types with same-size elements)
/// hold the same elements byte for byte.
template <class A, class B>
bool same_bytes(const A& a, const B& b) {
  static_assert(sizeof(typename A::value_type) ==
                sizeof(typename B::value_type));
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(),
                      a.size() * sizeof(typename A::value_type)) == 0);
}

/// Relative L2 error ||a-b|| / max(||b||, eps).
inline double rel_error(std::span<const real> a, std::span<const real> b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    num += d * d;
    den += static_cast<double>(b[i]) * b[i];
  }
  return std::sqrt(num) / std::max(std::sqrt(den), 1e-30);
}

}  // namespace memxct::testutil
