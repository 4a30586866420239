#include "sparse/ell.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/grid.hpp"

namespace memxct::sparse {

namespace {

EllBlockMatrix build(const CsrMatrix& a, idx_t block_rows, bool matrix_level) {
  MEMXCT_CHECK(block_rows > 0);
  EllBlockMatrix e;
  e.num_rows = a.num_rows;
  e.num_cols = a.num_cols;
  e.block_rows = block_rows;
  e.real_nnz = a.nnz();
  const idx_t num_blocks = std::max<idx_t>(1, ceil_div(a.num_rows, block_rows));
  e.block_width.resize(static_cast<std::size_t>(num_blocks));
  e.block_displ.resize(static_cast<std::size_t>(num_blocks) + 1);
  e.block_displ[0] = 0;

  const idx_t global_width = matrix_level ? a.max_row_nnz() : 0;
  for (idx_t b = 0; b < num_blocks; ++b) {
    idx_t width = global_width;
    if (!matrix_level) {
      const idx_t r0 = b * block_rows;
      const idx_t r1 = std::min<idx_t>(r0 + block_rows, a.num_rows);
      for (idx_t r = r0; r < r1; ++r)
        width = std::max(width, static_cast<idx_t>(a.displ[r + 1] - a.displ[r]));
    }
    e.block_width[static_cast<std::size_t>(b)] = width;
    e.block_displ[static_cast<std::size_t>(b) + 1] =
        e.block_displ[static_cast<std::size_t>(b)] +
        static_cast<nnz_t>(width) * block_rows;
  }

  e.ind.assign(static_cast<std::size_t>(e.block_displ.back()), 0);
  e.val.assign(static_cast<std::size_t>(e.block_displ.back()), real{0});

#pragma omp parallel for schedule(dynamic, 4)
  for (idx_t b = 0; b < num_blocks; ++b) {
    const idx_t r0 = b * block_rows;
    const idx_t r1 = std::min<idx_t>(r0 + block_rows, a.num_rows);
    const nnz_t base = e.block_displ[static_cast<std::size_t>(b)];
    for (idx_t r = r0; r < r1; ++r) {
      const idx_t lane = r - r0;  // "thread id" within the block
      idx_t w = 0;
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k, ++w) {
        // Column-major: element w of every lane is contiguous across lanes.
        const auto pos = static_cast<std::size_t>(
            base + static_cast<nnz_t>(w) * block_rows + lane);
        e.ind[pos] = a.ind[k];
        e.val[pos] = a.val[k];
      }
    }
  }
  return e;
}

}  // namespace

EllBlockMatrix to_ell_block(const CsrMatrix& a, idx_t block_rows) {
  return build(a, block_rows, /*matrix_level=*/false);
}

EllBlockMatrix to_ell_matrix(const CsrMatrix& a) {
  return build(a, /*block_rows=*/64, /*matrix_level=*/true);
}

void spmv_ell(const EllBlockMatrix& a, std::span<const real> x,
              std::span<real> y) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y.size()) == a.num_rows);
  const idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const real* const xp = x.data();
  real* const yp = y.data();
  const idx_t block_rows = a.block_rows;
  const idx_t num_blocks = a.num_blocks();
#pragma omp parallel
  {
    AlignedVector<real> acc(static_cast<std::size_t>(block_rows));
#pragma omp for schedule(dynamic, 4)
    for (idx_t b = 0; b < num_blocks; ++b) {
      const idx_t r0 = b * block_rows;
      const idx_t lanes = std::min<idx_t>(block_rows, a.num_rows - r0);
      const nnz_t base = a.block_displ[static_cast<std::size_t>(b)];
      const idx_t width = a.block_width[static_cast<std::size_t>(b)];
      std::fill(acc.begin(), acc.begin() + lanes, real{0});
      for (idx_t w = 0; w < width; ++w) {
        const idx_t* const indw = ind + base + static_cast<nnz_t>(w) * block_rows;
        const real* const valw = val + base + static_cast<nnz_t>(w) * block_rows;
        // Pad entries multiply x[0] by 0: no branch, matching the paper's
        // thread-divergence-free GPU kernel.
#pragma omp simd
        for (idx_t l = 0; l < lanes; ++l) acc[l] += xp[indw[l]] * valw[l];
      }
      for (idx_t l = 0; l < lanes; ++l) yp[r0 + l] = acc[l];
    }
  }
}

perf::KernelWork ell_work(const EllBlockMatrix& a) {
  perf::KernelWork w;
  w.nnz = a.real_nnz;
  const double padding = w.nnz > 0 ? static_cast<double>(a.padded_nnz()) /
                                         static_cast<double>(w.nnz)
                                   : 1.0;
  w.index_bytes_per_fma = sizeof(idx_t) * padding;
  w.value_bytes_per_fma = sizeof(real) * padding;
  return w;
}

}  // namespace memxct::sparse
