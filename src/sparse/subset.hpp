// Subset row-range views over the memoized operator's stored matrices.
//
// Ordered-subsets solvers (solve/os.hpp) sweep row subsets of the forward
// matrix A. Because rows live in pseudo-Hilbert ordered space, a subset is a
// contiguous ordered-row range aligned to the kernel's existing partition
// boundaries (kCsrPartsize row chunks for CSR, staged partitions for the
// buffered layout) — consecutive ordered rows are geometrically nearby rays,
// so sweeping ranges in bit-reversed order approximates the classic
// interleaved-angle subset schedule. Alignment means every kernel below
// reuses the matrices, partitions, and accumulation order of the full-apply
// kernels verbatim: no matrix duplication, no re-trace, and the forward
// subset result is bitwise equal to the corresponding rows of a full apply.
//
// The transpose direction cannot slice rows (the stored transpose is
// indexed by columns of A), so it is a *column-range* filter over the
// stored transpose matrix. Both storage layouts keep columns sorted —
// CSR rows are column-sorted, and the buffered footprint `map` is
// ascending within each partition — so the in-range entries of every row
// (or stage) form one contiguous run that is located once at view-build
// time. Cost per subset transpose apply is O(nnz_sub + rows), not O(nnz).
#pragma once

#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"
#include "sparse/plan.hpp"

namespace memxct::sparse {

/// Contiguous row range [first, first + count) in ordered row space.
struct RowRange {
  idx_t first = 0;
  idx_t count = 0;

  [[nodiscard]] idx_t last() const noexcept { return first + count; }
};

/// Splits [0, num_rows) into `num_subsets` contiguous ranges aligned to
/// `partsize` partition boundaries (the last range absorbs the tail).
/// Clamps the subset count to the number of partitions so every returned
/// range is non-empty; the union covers every row exactly once. Throws
/// InvalidArgument for num_rows < 1, partsize < 1, or num_subsets < 1.
[[nodiscard]] std::vector<RowRange> make_subset_ranges(idx_t num_rows,
                                                       int num_subsets,
                                                       idx_t partsize);

/// Validates that `range` is non-empty, within [0, num_rows), starts on a
/// `partsize` boundary, and ends on one (or at num_rows). Throws
/// InvalidArgument otherwise. All subset kernels require this alignment —
/// it is what lets them reuse the full kernels' partition structure.
void check_range_aligned(const RowRange& range, idx_t num_rows,
                         idx_t partsize);

// ---------------------------------------------------------------------------
// Forward direction: y_sub = A[range, :] · x  (y_sub has range.count rows).
// Bitwise equal to rows [first, last) of the corresponding full kernel.
// ---------------------------------------------------------------------------

/// Baseline CSR kernel restricted to `range`; dynamic schedule.
void spmv_csr_range(const CsrMatrix& a, idx_t partsize, const RowRange& range,
                    std::span<const real> x, std::span<real> y_sub);

/// Planned variant: `plan` partitions the in-range row chunks only (build it
/// from partition_nnz(a, partsize) sliced to the range's partitions).
void spmv_csr_range_planned(const CsrMatrix& a, idx_t partsize,
                            const RowRange& range, const ApplyPlan& plan,
                            std::span<const real> x, std::span<real> y_sub);

/// Multi-stage buffered kernel restricted to `range`; dynamic schedule.
void spmv_buffered_range(const BufferedMatrix& a, const RowRange& range,
                         std::span<const real> x, std::span<real> y_sub);

/// Planned variant; `plan` covers the in-range partitions only and `ws`
/// provides per-slot staging/output buffers as in spmv_buffered_planned.
void spmv_buffered_range_planned(const BufferedMatrix& a,
                                 const RowRange& range, const ApplyPlan& plan,
                                 Workspace& ws, std::span<const real> x,
                                 std::span<real> y_sub);

// ---------------------------------------------------------------------------
// Transpose direction: x = A[range, :]^T · y_sub, computed as a column-range
// filter over the stored transpose matrix At (columns of At = rows of A).
// The output is the full-length x; rows of At with no in-range entries are
// written as zero.
// ---------------------------------------------------------------------------

/// Per-row contiguous entry runs of At restricted to columns [first, last):
/// columns are sorted within each CSR row, so the in-range entries of row r
/// are exactly [lo[r], hi[r]). Built once per subset view by binary search
/// (O(rows · log nnz/row)); applies then touch only nnz_sub entries.
struct ColRangeIndex {
  RowRange range;               ///< Column range in At (= A's row range).
  AlignedVector<nnz_t> lo, hi;  ///< Per At row: in-range entry run.
  nnz_t nnz_sub = 0;            ///< Total in-range entries.

  [[nodiscard]] static ColRangeIndex build(const CsrMatrix& at,
                                           const RowRange& range);
};

/// Per-partition nnz weights of the column-range restriction, partitioned in
/// `partsize` row chunks of At — the plan-build input for the planned
/// column-range kernel (same partition granularity as the full kernel).
[[nodiscard]] std::vector<nnz_t> colrange_partition_nnz(
    const ColRangeIndex& index, idx_t num_rows, idx_t partsize);

/// x = At[:, range] · y_sub over the precomputed runs; dynamic schedule.
/// y_sub is indexed relative to range.first (length range.count).
void spmv_csr_colrange(const CsrMatrix& at, const ColRangeIndex& index,
                       std::span<const real> y_sub, std::span<real> x);

/// Planned variant: `plan` covers ALL At partitions (weights from
/// colrange_partition_nnz), so out-of-range partitions cost only the zero
/// store of their rows.
void spmv_csr_colrange_planned(const CsrMatrix& at, idx_t partsize,
                               const ColRangeIndex& index,
                               const ApplyPlan& plan,
                               std::span<const real> y_sub,
                               std::span<real> x);

/// Column-range restriction of a buffered transpose matrix. The staged
/// footprint `map` is ascending within each partition (sorted distinct
/// columns, chunked into stages), so the in-range stages of partition p form
/// one contiguous window [stage_begin[p], stage_end[p]); only the window's
/// boundary stages can be partially in range and need per-apply filtering
/// (a strided binary search on each row's ascending buffer slots, see
/// BufferedMatrix::run_lower_bound). Interior stages execute the unmodified
/// full-kernel inner loops.
struct BufferedColRange {
  RowRange range;                 ///< Column range (global x indices in map).
  std::vector<idx_t> stage_begin; ///< Per partition: first in-range stage.
  std::vector<idx_t> stage_end;   ///< Per partition: one past last in-range.
  std::vector<nnz_t> part_nnz;    ///< Per partition: in-range entries (plan
                                  ///< weights for the planned kernel).
  nnz_t nnz_sub = 0;              ///< Total in-range entries.

  [[nodiscard]] static BufferedColRange build(const BufferedMatrix& at,
                                              const RowRange& range);
};

/// x = At[:, range] · y_sub with the multi-stage buffered kernel restricted
/// to the precomputed stage windows; dynamic schedule.
void spmv_buffered_colrange(const BufferedMatrix& at,
                            const BufferedColRange& index,
                            std::span<const real> y_sub, std::span<real> x);

/// Planned variant: `plan` covers ALL At partitions (weights = part_nnz);
/// `ws` provides per-slot staging/output buffers as the full kernel.
void spmv_buffered_colrange_planned(const BufferedMatrix& at,
                                    const BufferedColRange& index,
                                    const ApplyPlan& plan, Workspace& ws,
                                    std::span<const real> y_sub,
                                    std::span<real> x);

}  // namespace memxct::sparse
