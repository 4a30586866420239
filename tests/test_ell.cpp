// Tests for block-ELL (GPU layout, Section 3.1.4) and matrix-level ELL.
#include <gtest/gtest.h>

#include "sparse/ell.hpp"
#include "test_util.hpp"

namespace memxct::sparse {
namespace {

struct EllCase {
  idx_t rows, cols;
  double density;
  idx_t block_rows;
};

class EllSweep : public ::testing::TestWithParam<EllCase> {};

TEST_P(EllSweep, BlockEllMatchesReference) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 21);
  const EllBlockMatrix e = to_ell_block(a, param.block_rows);
  const auto x = testutil::random_vector(param.cols, 22);
  AlignedVector<real> expected(static_cast<std::size_t>(param.rows));
  AlignedVector<real> actual(static_cast<std::size_t>(param.rows), -5.0f);
  spmv_reference(a, x, expected);
  spmv_ell(e, x, actual);
  EXPECT_LT(testutil::rel_error(actual, expected), 1e-5);
}

TEST_P(EllSweep, MatrixEllMatchesReference) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 23);
  const EllBlockMatrix e = to_ell_matrix(a);
  const auto x = testutil::random_vector(param.cols, 24);
  AlignedVector<real> expected(static_cast<std::size_t>(param.rows));
  AlignedVector<real> actual(static_cast<std::size_t>(param.rows));
  spmv_reference(a, x, expected);
  spmv_ell(e, x, actual);
  EXPECT_LT(testutil::rel_error(actual, expected), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EllSweep,
    ::testing::Values(EllCase{1, 1, 1.0, 4}, EllCase{16, 16, 0.5, 4},
                      EllCase{100, 80, 0.1, 32}, EllCase{63, 100, 0.15, 64},
                      EllCase{129, 65, 0.05, 16},
                      EllCase{200, 200, 0.02, 64},
                      EllCase{40, 40, 0.0, 8}));

TEST(Ell, PartitionLevelPaddingBeatsMatrixLevel) {
  // The paper's point versus cuSPARSE: padding at partition level wastes
  // fewer redundant FMAs than padding to the global maximum width when row
  // lengths are skewed.
  CsrBuilder b(64, 64);
  std::vector<std::pair<idx_t, real>> heavy;
  for (idx_t c = 0; c < 64; ++c) heavy.emplace_back(c, 1.0f);
  b.set_row(0, heavy);  // one 64-wide row
  const std::vector<std::pair<idx_t, real>> light{{0, 1.0f}};
  for (idx_t r = 1; r < 64; ++r) b.set_row(r, light);
  const CsrMatrix a = b.assemble();
  const EllBlockMatrix block = to_ell_block(a, 8);
  const EllBlockMatrix matrix = to_ell_matrix(a);
  EXPECT_LT(block.padded_nnz(), matrix.padded_nnz());
  // Matrix-level pads all 64 rows to width 64.
  EXPECT_EQ(matrix.padded_nnz(), 64 * 64);
  // Block-level pads only the first 8-row slice to 64; others to 1.
  EXPECT_EQ(block.padded_nnz(), 8 * 64 + 7 * 8 * 1);
}

TEST(Ell, PaddedEntriesAreZeroValueIndexZero) {
  const CsrMatrix a = testutil::random_csr(10, 10, 0.2, 31);
  const EllBlockMatrix e = to_ell_block(a, 4);
  // Count padded slots: they must carry val 0 (the redundant multiply) and
  // a valid index (0) to avoid branching.
  nnz_t nonzero_vals = 0;
  for (std::size_t i = 0; i < e.val.size(); ++i) {
    EXPECT_GE(e.ind[i], 0);
    EXPECT_LT(e.ind[i], e.num_cols);
    if (e.val[i] != 0.0f) ++nonzero_vals;
  }
  EXPECT_LE(nonzero_vals, a.nnz());
}

TEST(Ell, WorkCountsPadding) {
  const CsrMatrix a = testutil::random_csr(32, 32, 0.1, 37);
  const EllBlockMatrix e = to_ell_block(a, 8);
  const auto work = ell_work(e);
  EXPECT_EQ(work.nnz, a.nnz());
  EXPECT_GE(e.padded_nnz(), a.nnz());
  EXPECT_GE(work.bytes_per_fma(), 8.0);
}

TEST(Ell, WorkChargesPaddingToBytesOverRealNonzeros) {
  // Rows of 1..5 entries in blocks of 4 rows (the last block ragged): the
  // padding is streamed, so it is charged to bytes per FMA, never to FMAs.
  CsrMatrix a;
  a.num_rows = 10;
  a.num_cols = 8;
  a.displ = {0};
  for (idx_t r = 0; r < a.num_rows; ++r) {
    for (idx_t c = 0; c <= r % 5; ++c) {
      a.ind.push_back(c);
      a.val.push_back(1.0f + static_cast<real>(r));
    }
    a.displ.push_back(static_cast<nnz_t>(a.ind.size()));
  }
  const EllBlockMatrix e = to_ell_block(a, 4);
  ASSERT_GT(e.padded_nnz(), a.nnz());
  const auto work = ell_work(e);
  EXPECT_EQ(work.nnz, a.nnz());
  EXPECT_DOUBLE_EQ(work.flops(), 2.0 * static_cast<double>(a.nnz()));
  EXPECT_DOUBLE_EQ(work.bytes_per_fma(),
                   8.0 * static_cast<double>(e.padded_nnz()) /
                       static_cast<double>(a.nnz()));
}

}  // namespace
}  // namespace memxct::sparse
