// Block-ELL storage (paper Section 3.1.4) and matrix-level ELL.
//
// The GPU path stores each row partition (CUDA thread block) as a
// column-major, zero-padded ELL slice: consecutive "threads" (rows) read
// consecutive memory, giving coalesced access. Padding happens at partition
// level rather than matrix level, and pads with 0 values + index 0 so the
// kernel multiplies by zero instead of branching (the thread-divergence
// avoidance the paper describes versus cuSPARSE's -1 padding).
//
// Matrix-level ELL (one slice, global width) is also provided as the
// cuSPARSE-style general-library stand-in for Table 6.
#pragma once

#include <span>

#include "perf/counters.hpp"
#include "sparse/csr.hpp"

namespace memxct::sparse {

/// Column-major zero-padded ELL slices of `block_rows` rows each.
struct EllBlockMatrix {
  idx_t num_rows = 0;
  idx_t num_cols = 0;
  idx_t block_rows = 0;  ///< Partition size (threads per block on GPU).
  nnz_t real_nnz = 0;    ///< Nonzeros of the source matrix (the FMAs).
  std::vector<nnz_t> block_displ;  ///< Per block: start into ind/val.
  std::vector<idx_t> block_width;  ///< Per block: padded row length.
  AlignedVector<idx_t> ind;        ///< Padded column indices (0 for pad).
  AlignedVector<real> val;         ///< Padded values (0 for pad).

  [[nodiscard]] idx_t num_blocks() const noexcept {
    return static_cast<idx_t>(block_width.size());
  }
  /// Stored elements including padding (the redundant-FMA cost of ELL).
  [[nodiscard]] nnz_t padded_nnz() const noexcept {
    return block_displ.empty() ? 0 : block_displ.back();
  }
};

/// Converts CSR to block-ELL with `block_rows` rows per slice.
[[nodiscard]] EllBlockMatrix to_ell_block(const CsrMatrix& a,
                                          idx_t block_rows = 64);

/// Converts CSR to matrix-level ELL: a single slice padded to the global
/// maximum row width (the general-library layout of Table 6).
[[nodiscard]] EllBlockMatrix to_ell_matrix(const CsrMatrix& a);

/// y = A·x over block-ELL slices. The inner loop is the transposed
/// (column-major) traversal; on CPU it vectorizes across the rows of a
/// slice exactly where a GPU would coalesce.
void spmv_ell(const EllBlockMatrix& a, std::span<const real> x,
              std::span<real> y);

/// Work accounting: real_nnz FMAs; index and value bytes per FMA scaled by
/// the padded fraction (8 B/FMA unpadded), so ELL pays for its padding in
/// bytes, like the buffered layout (buffered_work).
[[nodiscard]] perf::KernelWork ell_work(const EllBlockMatrix& a);

}  // namespace memxct::sparse
