// Tests for the multi-stage input-buffered SpMV (Listing 3, Section 3.3).
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "geometry/projector.hpp"
#include "hilbert/ordering.hpp"
#include "sparse/buffered.hpp"
#include "sparse/transpose.hpp"
#include "test_util.hpp"

namespace memxct::sparse {
namespace {

struct BufferedCase {
  idx_t rows, cols;
  double density;
  BufferConfig config;
};

class BufferedSweep : public ::testing::TestWithParam<BufferedCase> {};

TEST_P(BufferedSweep, MatchesReference) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 41);
  const BufferedMatrix bm = build_buffered(a, param.config);
  const auto x = testutil::random_vector(param.cols, 42);
  AlignedVector<real> expected(static_cast<std::size_t>(param.rows));
  AlignedVector<real> actual(static_cast<std::size_t>(param.rows), -3.0f);
  spmv_reference(a, x, expected);
  spmv_buffered(bm, x, actual);
  EXPECT_LT(testutil::rel_error(actual, expected), 1e-5);
}

TEST_P(BufferedSweep, StructureIsValid) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 43);
  const BufferedMatrix bm = build_buffered(a, param.config);
  EXPECT_NO_THROW(bm.validate());
  EXPECT_EQ(bm.nnz(), a.nnz());
  // Every stage respects the 16-bit buffer bound.
  for (idx_t s = 0; s < bm.num_stages(); ++s)
    EXPECT_LE(bm.stagenz[static_cast<std::size_t>(s)], bm.config.buffsize);
}

TEST_P(BufferedSweep, MapCoversExactlyPartitionFootprints) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 45);
  const BufferedMatrix bm = build_buffered(a, param.config);
  // For each partition, the union of its stage maps must equal the set of
  // distinct columns its rows touch.
  for (idx_t p = 0; p < bm.num_partitions(); ++p) {
    std::set<idx_t> expected_cols;
    const idx_t r0 = p * bm.config.partsize;
    const idx_t r1 = std::min<idx_t>(r0 + bm.config.partsize, a.num_rows);
    for (idx_t r = r0; r < r1; ++r)
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k)
        expected_cols.insert(a.ind[k]);
    std::set<idx_t> staged_cols;
    for (idx_t s = bm.partdispl[static_cast<std::size_t>(p)];
         s < bm.partdispl[static_cast<std::size_t>(p) + 1]; ++s)
      for (nnz_t m = bm.stagedispl[static_cast<std::size_t>(s)];
           m < bm.stagedispl[static_cast<std::size_t>(s) + 1]; ++m)
        staged_cols.insert(bm.map[static_cast<std::size_t>(m)]);
    EXPECT_EQ(staged_cols, expected_cols) << "partition " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BufferedSweep,
    ::testing::Values(
        BufferedCase{1, 1, 1.0, {1, 1}},
        BufferedCase{16, 16, 0.5, {4, 8}},
        BufferedCase{100, 80, 0.1, {128, 4096}},
        BufferedCase{100, 80, 0.1, {8, 16}},   // many small stages
        BufferedCase{63, 200, 0.2, {16, 32}},  // footprint > buffer
        BufferedCase{257, 129, 0.05, {32, 64}},
        BufferedCase{512, 300, 0.02, {128, 256}},
        BufferedCase{40, 40, 0.0, {16, 64}},   // empty matrix
        BufferedCase{10, 70000, 0.9, {4, 65536}}));  // max buffsize bound

TEST(Buffered, MultipleStagesWhenFootprintExceedsBuffer) {
  // A partition touching 100 distinct columns with a 32-entry buffer needs
  // ceil(100/32) = 4 stages.
  CsrBuilder b(2, 100);
  std::vector<std::pair<idx_t, real>> row;
  for (idx_t c = 0; c < 100; ++c) row.emplace_back(c, 1.0f);
  b.set_row(0, row);
  b.set_row(1, row);
  const CsrMatrix a = b.assemble();
  const BufferedMatrix bm = build_buffered(a, {2, 32});
  EXPECT_EQ(bm.num_partitions(), 1);
  EXPECT_EQ(bm.num_stages(), 4);
  EXPECT_EQ(bm.total_staged(), 100);  // distinct columns staged once
}

TEST(Buffered, SharedFootprintStagedOnce) {
  // Rows of one partition sharing columns stage them once — the data-reuse
  // benefit of Section 3.3.1. Two identical rows with 10 columns stage 10
  // words, not 20.
  CsrBuilder b(2, 50);
  std::vector<std::pair<idx_t, real>> row;
  for (idx_t c = 0; c < 10; ++c) row.emplace_back(c * 5, 2.0f);
  b.set_row(0, row);
  b.set_row(1, row);
  const BufferedMatrix bm = build_buffered(b.assemble(), {2, 64});
  EXPECT_EQ(bm.total_staged(), 10);
}

TEST(Buffered, SixteenBitIndexBound) {
  EXPECT_THROW(build_buffered(testutil::random_csr(4, 4, 1.0, 1), {4, 65537}),
               InvariantError);
  EXPECT_THROW(build_buffered(testutil::random_csr(4, 4, 1.0, 1), {0, 16}),
               InvariantError);
  EXPECT_THROW(build_buffered(testutil::random_csr(4, 4, 1.0, 1), {4, 0}),
               InvariantError);
}

TEST(Buffered, BandwidthAccountingUsesTwoByteIndices) {
  const CsrMatrix a = testutil::random_csr(64, 64, 0.2, 47);
  const BufferedMatrix bm = build_buffered(a, {16, 128});
  const auto work = buffered_work(bm);
  EXPECT_EQ(work.nnz, a.nnz());
  EXPECT_DOUBLE_EQ(work.bytes_per_fma(), 6.0);  // 2 B index + 4 B value
  EXPECT_EQ(work.staged_words, bm.total_staged());
  // Regular bytes = 6·nnz + 8·staged (map read + gathered value).
  EXPECT_DOUBLE_EQ(work.regular_bytes(),
                   6.0 * static_cast<double>(a.nnz()) +
                       8.0 * static_cast<double>(bm.total_staged()));
}

TEST(Buffered, LastPartialPartitionHandled) {
  // num_rows not divisible by partsize: trailing rows must still be exact.
  const CsrMatrix a = testutil::random_csr(13, 30, 0.4, 49);
  const BufferedMatrix bm = build_buffered(a, {8, 16});
  const auto x = testutil::random_vector(30, 50);
  AlignedVector<real> expected(13), actual(13);
  spmv_reference(a, x, expected);
  spmv_buffered(bm, x, actual);
  EXPECT_LT(testutil::rel_error(actual, expected), 1e-5);
}

TEST(Buffered, HilbertLikeBandedMatrixFewStages) {
  // Banded (compact-footprint) matrices — what pseudo-Hilbert ordering
  // produces — need few stages per partition.
  const CsrMatrix a = testutil::banded_csr(512, 512, 16, 51);
  const BufferedMatrix bm = build_buffered(a, {64, 256});
  // Each 64-row partition touches ≲ 64+2*16 distinct columns < 256.
  EXPECT_EQ(bm.num_stages(), bm.num_partitions());
}

// ---- bitwise parity with the sort-and-search construction ----------------

/// The construction build_buffered replaced, kept as the parity reference:
/// per partition, copy every nonzero's column, sort and deduplicate the copy,
/// then place each entry by a binary search into the distinct columns.
BufferedMatrix build_buffered_sort_and_search(const CsrMatrix& a,
                                              const BufferConfig& config) {
  BufferedMatrix b;
  b.num_rows = a.num_rows;
  b.num_cols = a.num_cols;
  b.config = config;
  const idx_t partsize = config.partsize;
  const idx_t buffsize = config.buffsize;
  const idx_t numparts = std::max<idx_t>(1, ceil_div(a.num_rows, partsize));

  std::vector<std::vector<idx_t>> cols(static_cast<std::size_t>(numparts));
  b.partdispl = {0};
  b.stagedispl = {0};
  for (idx_t p = 0; p < numparts; ++p) {
    auto& c = cols[static_cast<std::size_t>(p)];
    const idx_t r0 = p * partsize;
    const idx_t r1 = std::min<idx_t>(r0 + partsize, a.num_rows);
    c.assign(a.ind.begin() + a.displ[r0], a.ind.begin() + a.displ[r1]);
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    const auto size = static_cast<idx_t>(c.size());
    const idx_t stages = std::max<idx_t>(1, ceil_div(size, buffsize));
    for (idx_t k = 0; k < stages; ++k) {
      const idx_t nz = std::min<idx_t>(buffsize, size - k * buffsize);
      b.stagenz.push_back(std::max<idx_t>(nz, 0));
      b.stagedispl.push_back(b.stagedispl.back() + b.stagenz.back());
    }
    b.partdispl.push_back(b.partdispl.back() + stages);
    b.map.insert(b.map.end(), c.begin(), c.end());
  }
  b.displ.assign(static_cast<std::size_t>(b.num_stages()) * partsize + 1, 0);
  b.ind.resize(static_cast<std::size_t>(a.nnz()));
  b.val.resize(static_cast<std::size_t>(a.nnz()));

  nnz_t cursor = 0;
  for (idx_t p = 0; p < numparts; ++p) {
    const auto& c = cols[static_cast<std::size_t>(p)];
    const auto slot_of = [&](idx_t col) {
      return static_cast<idx_t>(std::lower_bound(c.begin(), c.end(), col) -
                                c.begin());
    };
    const idx_t r0 = p * partsize;
    const idx_t r1 = std::min<idx_t>(r0 + partsize, a.num_rows);
    const idx_t stage0 = b.partdispl[static_cast<std::size_t>(p)];
    const idx_t stages = b.partdispl[static_cast<std::size_t>(p) + 1] - stage0;
    std::vector<nnz_t> counts(static_cast<std::size_t>(stages) * partsize, 0);
    for (idx_t r = r0; r < r1; ++r)
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k)
        ++counts[static_cast<std::size_t>(slot_of(a.ind[k]) / buffsize) *
                     partsize +
                 (r - r0)];
    for (idx_t s = 0; s < stages; ++s)
      for (idx_t j = 0; j < partsize; ++j) {
        auto& count = counts[static_cast<std::size_t>(s) * partsize + j];
        const nnz_t n = count;
        count = cursor;
        cursor += n;
        b.displ[static_cast<std::size_t>(stage0 + s) * partsize + j + 1] =
            cursor;
      }
    for (idx_t r = r0; r < r1; ++r)
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
        const idx_t pos = slot_of(a.ind[k]);
        nnz_t& cur =
            counts[static_cast<std::size_t>(pos / buffsize) * partsize +
                   (r - r0)];
        b.ind[static_cast<std::size_t>(cur)] =
            static_cast<buf_idx_t>(pos % buffsize);
        b.val[static_cast<std::size_t>(cur)] = a.val[k];
        ++cur;
      }
  }
  return b;
}

void expect_buffered_bitwise(const BufferedMatrix& got,
                             const BufferedMatrix& want,
                             const std::string& where) {
  EXPECT_EQ(got.num_rows, want.num_rows) << where;
  EXPECT_EQ(got.num_cols, want.num_cols) << where;
  EXPECT_TRUE(testutil::same_bytes(got.partdispl, want.partdispl))
      << "partdispl, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.stagedispl, want.stagedispl))
      << "stagedispl, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.stagenz, want.stagenz))
      << "stagenz, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.map, want.map))
      << "map, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.displ, want.displ))
      << "displ, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.ind, want.ind))
      << "ind, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.val, want.val))
      << "val, " << where;
}

/// Random matrix whose rows [empty_from, empty_to) have no entries, so whole
/// partitions can be empty.
CsrMatrix random_csr_with_empty_rows(idx_t rows, idx_t cols, double density,
                                     idx_t empty_from, idx_t empty_to,
                                     std::uint64_t seed) {
  Rng rng(seed);
  CsrBuilder b(rows, cols);
  std::vector<std::pair<idx_t, real>> entries;
  for (idx_t r = 0; r < rows; ++r) {
    entries.clear();
    if (r < empty_from || r >= empty_to)
      for (idx_t c = 0; c < cols; ++c)
        if (rng.uniform() < density)
          entries.emplace_back(c, static_cast<real>(rng.uniform(-2.0, 2.0)));
    b.set_row(r, entries);
  }
  return b.assemble();
}

/// Hilbert-ordered projection matrix (the operator's real layout).
CsrMatrix hilbert_projection_matrix(idx_t angles, idx_t channels) {
  const auto g = geometry::make_geometry(angles, channels);
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  return geometry::build_projection_matrix(g, sino, tomo);
}

TEST(BufferedBuild, MatchesSortAndSearchReferenceBitwise) {
  const CsrMatrix traced = hilbert_projection_matrix(48, 32);
  const struct {
    const char* name;
    CsrMatrix a;
  } matrices[] = {
      {"random", testutil::random_csr(300, 200, 0.05, 61)},
      // Rows 40..103 empty: whole partitions at partsize <= 32, a partial
      // empty one otherwise; 301 rows leave a last partial partition.
      {"random-empty-rows",
       random_csr_with_empty_rows(301, 150, 0.08, 40, 104, 62)},
      {"empty", testutil::random_csr(37, 20, 0.0, 63)},
      {"hilbert-forward", traced},
      {"hilbert-transpose", transpose(traced)},
  };
  const BufferConfig configs[] = {
      {128, 4096}, {64, 256}, {32, 64}, {16, 7}, {7, 3}, {1, 1}, {300, 65536},
  };
  const int saved = omp_get_max_threads();
  for (const auto& m : matrices)
    for (const auto& config : configs) {
      const BufferedMatrix want = build_buffered_sort_and_search(m.a, config);
      ASSERT_NO_THROW(want.validate());
      for (const int threads : {1, 3}) {
        omp_set_num_threads(threads);
        const std::string where =
            std::string(m.name) + " partsize=" +
            std::to_string(config.partsize) +
            " buffsize=" + std::to_string(config.buffsize) +
            " threads=" + std::to_string(threads);
        expect_buffered_bitwise(build_buffered(m.a, config), want, where);
      }
    }
  omp_set_num_threads(saved);
}

}  // namespace
}  // namespace memxct::sparse
