// Tests for common utilities: grid math, RNG determinism, aligned storage,
// invariant checking.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstring>
#include <set>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/grid.hpp"
#include "common/interleave.hpp"
#include "common/rng.hpp"

namespace memxct {
namespace {

TEST(Grid, RowMajorRoundTrip) {
  const Extent2D ext{7, 13};
  for (idx_t r = 0; r < ext.rows; ++r)
    for (idx_t c = 0; c < ext.cols; ++c) {
      const auto i = row_major_index(ext, r, c);
      const Cell cell = row_major_cell(ext, i);
      EXPECT_EQ(cell.row, r);
      EXPECT_EQ(cell.col, c);
    }
}

TEST(Grid, Contains) {
  const Extent2D ext{4, 5};
  EXPECT_TRUE(ext.contains(0, 0));
  EXPECT_TRUE(ext.contains(3, 4));
  EXPECT_FALSE(ext.contains(4, 0));
  EXPECT_FALSE(ext.contains(0, 5));
  EXPECT_FALSE(ext.contains(-1, 0));
}

TEST(Grid, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(2), 2);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(1000), 1024);
  EXPECT_EQ(next_pow2(1024), 1024);
}

TEST(Grid, IsPow2AndLog2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(log2_pow2(1), 0);
  EXPECT_EQ(log2_pow2(256), 8);
}

TEST(Grid, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 3), 0);
}

TEST(Error, CheckThrowsWithContext) {
  EXPECT_THROW(MEMXCT_CHECK(false), InvariantError);
  try {
    MEMXCT_CHECK_MSG(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
  }
  EXPECT_NO_THROW(MEMXCT_CHECK(true));
}

TEST(Aligned, VectorIsCacheLineAligned) {
  AlignedVector<float> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  AlignedVector<std::uint16_t> w(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % kCacheLineBytes, 0u);
}

TEST(Aligned, LargeVectorsSitOnHugePageBoundaries) {
  const std::int64_t before = aligned_alloc_count().load();
  const std::size_t large = kHugePageBytes / sizeof(float);  // exactly 2 MiB
  AlignedVector<float> big(large + 3);
  AlignedVector<float> at_threshold(large);
  AlignedVector<float> small(large / 2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % kHugePageBytes, 0u);
  EXPECT_EQ(
      reinterpret_cast<std::uintptr_t>(at_threshold.data()) % kHugePageBytes,
      0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small.data()) % kCacheLineBytes,
            0u);
  EXPECT_EQ(aligned_alloc_count().load() - before, 3);
  // Count-only construction still leaves the elements unwritten, or 0xFF
  // under AddressSanitizer, on huge pages as on small ones.
  if constexpr (kPoisonDefaultInit) {
    for (const AlignedVector<float>* v : {&big, &at_threshold, &small}) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(v->data());
      const std::size_t n = v->size() * sizeof(float);
      EXPECT_TRUE(std::all_of(bytes, bytes + n,
                              [](unsigned char b) { return b == 0xFF; }));
    }
  }
  // The advice changes where pages come from, never what they hold.
  AlignedVector<std::int32_t> zeros(large, 0);
  EXPECT_TRUE(std::all_of(zeros.begin(), zeros.end(),
                          [](std::int32_t v) { return v == 0; }));
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, PoissonMean) {
  Rng rng(13);
  for (const double mean : {0.5, 5.0, 50.0, 500.0}) {
    double sum = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.1 + 0.1) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(17);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Interleave, SliceRoundTrip) {
  // Odd n and odd k — no even-division shortcuts.
  const idx_t n = 19;
  for (const idx_t k : {1, 3, 5}) {
    std::vector<AlignedVector<real>> slices;
    for (idx_t s = 0; s < k; ++s) {
      AlignedVector<real> v(static_cast<std::size_t>(n));
      for (idx_t i = 0; i < n; ++i)
        v[static_cast<std::size_t>(i)] =
            static_cast<real>(100 * s + i);
      slices.push_back(std::move(v));
    }
    AlignedVector<real> packed(static_cast<std::size_t>(n * k),
                               -1.0f);
    for (idx_t s = 0; s < k; ++s)
      common::interleave_slice(slices[static_cast<std::size_t>(s)], k, s,
                               packed);
    // Element i of slice s must land at i*k + s.
    for (idx_t i = 0; i < n; ++i)
      for (idx_t s = 0; s < k; ++s)
        EXPECT_EQ(packed[static_cast<std::size_t>(i * k + s)],
                  static_cast<real>(100 * s + i));
    AlignedVector<real> out(static_cast<std::size_t>(n));
    for (idx_t s = 0; s < k; ++s) {
      common::deinterleave_slice(packed, k, s, out);
      for (idx_t i = 0; i < n; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)],
                  slices[static_cast<std::size_t>(s)]
                        [static_cast<std::size_t>(i)]);
    }
  }
}

TEST(Interleave, WidthOneIsIdentityLayout) {
  const auto n = std::size_t{13};
  AlignedVector<real> src(n), dst(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<real>(i) * 0.5f;
  common::interleave_slice(src, 1, 0, dst);
  EXPECT_EQ(0, std::memcmp(src.data(), dst.data(), n * sizeof(real)));
  AlignedVector<real> back(n, -1.0f);
  common::deinterleave_slice(dst, 1, 0, back);
  EXPECT_EQ(0, std::memcmp(src.data(), back.data(), n * sizeof(real)));
}

TEST(Aligned, ValueFormsZeroAndCountOnlyFormsStayUnwritten) {
  constexpr std::size_t n = 100;
  const auto all_bytes_are = [](const auto& v, std::size_t from,
                                unsigned char byte) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = from * sizeof(v[0]); i < v.size() * sizeof(v[0]);
         ++i)
      if (p[i] != byte) return false;
    return true;
  };

  // Forms that take a value write it.
  AlignedVector<float> filled(n, 0.0f);
  AlignedVector<float> resized;
  resized.resize(n, 0.0f);
  AlignedVector<float> assigned;
  assigned.assign(n, 0.0f);
  EXPECT_TRUE(all_bytes_are(filled, 0, 0));
  EXPECT_TRUE(all_bytes_are(resized, 0, 0));
  EXPECT_TRUE(all_bytes_are(assigned, 0, 0));

  // Count-only forms default-initialise trivial elements: nothing is written
  // in a release build, and under AddressSanitizer every unwritten byte is
  // 0xFF so a read-before-write surfaces in the asan test run.
  AlignedVector<std::uint32_t> counted(n);
  ASSERT_EQ(counted.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    counted[i] = static_cast<std::uint32_t>(i);
  counted.resize(2 * n);
  ASSERT_EQ(counted.size(), 2 * n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counted[i], i);
  if constexpr (kPoisonDefaultInit) {
    EXPECT_TRUE(all_bytes_are(AlignedVector<float>(n), 0, 0xFF));
    EXPECT_TRUE(all_bytes_are(counted, n, 0xFF));
  }

  // Non-trivial types keep value-initialisation.
  const AlignedVector<std::complex<float>> complex_counted(n);
  for (const auto& z : complex_counted) EXPECT_EQ(z, std::complex<float>{});
}

TEST(Interleave, AlignedResizeForSimd) {
  constexpr std::size_t per_line = kCacheLineBytes / sizeof(real);
  AlignedVector<real> v;
  const std::size_t padded = common::aligned_resize_for_simd(v, 7, 3);
  EXPECT_EQ(padded, v.size());
  // Holds n*k elements, rounded up to whole cache lines so vector
  // loads/stores on the last interleaved group stay in bounds.
  EXPECT_GE(v.size(), 21u);
  EXPECT_EQ(v.size() % per_line, 0u);
  for (const real x : v) EXPECT_EQ(x, 0.0f);
  // Shrinking keeps the rounding invariant.
  common::aligned_resize_for_simd(v, 2, 1);
  EXPECT_GE(v.size(), 2u);
  EXPECT_EQ(v.size() % per_line, 0u);
  EXPECT_THROW(common::aligned_resize_for_simd(v, 4, 0), InvariantError);
}

}  // namespace
}  // namespace memxct
