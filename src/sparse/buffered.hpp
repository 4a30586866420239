// Multi-stage input-buffered SpMV (paper Listing 3 and Section 3.3).
//
// Rows are grouped into partitions of `partsize` rows. For each partition
// the distinct input (column) indices — its "data access footprint" — are
// collected in ordered-index order and split into stages of at most
// `buffsize` entries. The kernel then alternates:
//   1. staging: gather x[map[...]] into a small L1-resident buffer;
//   2. compute: FMA loops addressing the buffer with 16-bit indices.
// Per-FMA regular traffic drops from 8 B (4 B index + 4 B value) to 6 B,
// the Section 3.3.5 bandwidth saving; the staging gather replaces scattered
// DRAM-latency-bound accesses with dense buffer reuse.
//
// Inside each stage, the partition's rows form groups of kSliceRows rows
// (one AVX-512 fp32 vector), and each group stores its entries column-major
// across its rows, padded to the group's longest row in that stage — the
// in-stage layout the paper uses for GPU coalescing (Section 3.3), here
// feeding CPU SIMD lanes. Entry e of row r of group g lives at
// groupdispl[g] + e*rows_g + r, where rows_g = min(kSliceRows,
// partsize - kSliceRows*g); rowlen[r] says how many of the row's width
// entries are real. Pad entries hold slot 0 and value 0, and the kernels
// mask them out, so each row adds exactly its own entries in column order.
//
// Values are stored as fp32 or, after quantize_values, as bf16/fp16 bits in
// the same sliced layout (sparse/precision.hpp). The kernels decode each
// stored value to fp32 and run the same arithmetic, so reduced precision
// changes only the value every product uses, and it moves 2 B per entry
// instead of 4: 4 B/FMA before padding against 6.
//
// Pseudo-Hilbert ordering is the enabler: it makes each partition's
// footprint a compact 2D region, so the distinct-column count per partition
// (and hence the number of stages) stays small.
#pragma once

#include <algorithm>
#include <span>

#include "common/grid.hpp"
#include "perf/counters.hpp"
#include "sparse/csr.hpp"
#include "sparse/precision.hpp"

namespace memxct::sparse {

/// Rows per SIMD group of the in-stage sliced layout (16 fp32 lanes).
inline constexpr idx_t kSliceRows = 16;

/// Tuning parameters (the Fig 10 search space).
struct BufferConfig {
  idx_t partsize = 128;   ///< Rows per partition ("block size").
  idx_t buffsize = 4096;  ///< Buffer capacity in elements (4096 = 16 KB).
};

/// One row's entries within one stage: entry e (e < len) is
/// ind/val[offset + e*stride], in ascending buffer-slot order.
struct RowRun {
  nnz_t offset = 0;
  idx_t stride = 1;
  idx_t len = 0;

  [[nodiscard]] nnz_t at(idx_t e) const noexcept {
    return offset + static_cast<nnz_t>(e) * stride;
  }
};

/// The memoized, staged matrix structure of Listing 3.
struct BufferedMatrix {
  idx_t num_rows = 0;
  idx_t num_cols = 0;
  BufferConfig config;

  std::vector<idx_t> partdispl;    ///< Per partition: first stage index.
  std::vector<nnz_t> stagedispl;   ///< Per stage: start into map.
  std::vector<idx_t> stagenz;      ///< Per stage: staged element count.
  AlignedVector<idx_t> map;        ///< Staged global x indices.
  AlignedVector<nnz_t> groupdispl; ///< Per (stage, row group) entry start:
                                   ///< groupdispl[stage*num_groups() + g].
  AlignedVector<idx_t> rowlen;     ///< Per (stage, row-in-partition) entry
                                   ///< count: rowlen[stage*partsize + j].
  AlignedVector<buf_idx_t> ind;    ///< 16-bit buffer-local indices (padded).
  AlignedVector<real> val;         ///< Fp32 values, sliced layout (padded).
  AlignedVector<std::uint16_t> val16;  ///< Bf16/Fp16 bits, same layout.
  ValueStorage storage = ValueStorage::Fp32;  ///< Which value array is used.

  [[nodiscard]] idx_t num_partitions() const noexcept {
    return static_cast<idx_t>(partdispl.size()) - 1;
  }
  [[nodiscard]] idx_t num_stages() const noexcept {
    return static_cast<idx_t>(stagenz.size());
  }
  /// Row groups per stage.
  [[nodiscard]] idx_t num_groups() const noexcept {
    return ceil_div(config.partsize, kSliceRows);
  }
  /// Rows in group g of every stage (kSliceRows except a ragged last one).
  [[nodiscard]] idx_t group_rows(idx_t g) const noexcept {
    return std::min(kSliceRows, config.partsize - g * kSliceRows);
  }
  /// Real nonzeros (the FMAs an apply performs).
  [[nodiscard]] nnz_t nnz() const noexcept;
  /// Stored entries, real plus padding (the entries an apply streams).
  [[nodiscard]] nnz_t padded_nnz() const noexcept {
    return static_cast<nnz_t>(ind.size());
  }
  /// Total staged words per apply (map traffic), for bandwidth accounting.
  [[nodiscard]] nnz_t total_staged() const noexcept {
    return static_cast<nnz_t>(map.size());
  }
  /// Resident bytes of every array, padding included.
  [[nodiscard]] std::int64_t bytes() const noexcept;

  /// Row j (in-partition) of `stage` as a strided run.
  [[nodiscard]] RowRun row_run(idx_t stage, idx_t j) const noexcept {
    const idx_t g = j / kSliceRows;
    const auto cell = static_cast<std::size_t>(stage) *
                          static_cast<std::size_t>(num_groups()) +
                      static_cast<std::size_t>(g);
    return RowRun{groupdispl[cell] + (j - g * kSliceRows), group_rows(g),
                  rowlen[static_cast<std::size_t>(stage) *
                             static_cast<std::size_t>(config.partsize) +
                         static_cast<std::size_t>(j)]};
  }

  /// First entry e in [from, run.len) of `run` whose buffer slot is >=
  /// `slot` (slots ascend along a run), or run.len.
  [[nodiscard]] idx_t run_lower_bound(const RowRun& run, idx_t from,
                                      idx_t slot) const noexcept {
    idx_t lo = from;
    idx_t hi = run.len;
    while (lo < hi) {
      const idx_t mid = lo + (hi - lo) / 2;
      if (ind[static_cast<std::size_t>(run.at(mid))] < slot)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

  /// Structural validation (stage sizes, index bounds, group widths).
  void validate() const;
};

/// Builds the staged structure from CSR. Requires buffsize <= 65536 (16-bit
/// buffer addressing) and partsize >= 1. OpenMP-parallel over partitions.
[[nodiscard]] BufferedMatrix build_buffered(const CsrMatrix& a,
                                            const BufferConfig& config = {});

/// Builds the backward (transposed) matrix straight from an fp32 forward
/// one, byte for byte build_buffered(transpose(A), fwd.config) where
/// fwd == build_buffered(A, config), without materialising a CSR A^T: the
/// build holds only fwd and its result (Section 3.5.1's order-preserving
/// transposition, applied to the staged layout). Three walks over the
/// forward rows, each thread on a contiguous, entry-balanced range of
/// forward partitions, ascending: count each backward partition's
/// footprint; place each ray into its partitions' sorted footprints (map)
/// and count entries per backward (stage, row); place the entries through
/// per-thread cursors. Lower threads own lower positions of every
/// footprint and every row, so the output is the same under any thread
/// count. OpenMP-parallel.
[[nodiscard]] BufferedMatrix transpose_buffered(const BufferedMatrix& fwd);

/// Re-stores an fp32 matrix's values as `storage`: one round-to-nearest-even
/// pass from val into val16, which then replaces val. Every kernel
/// multiplies by the decoded 16-bit value and is otherwise unchanged. No-op
/// for Fp32; requires m.storage == Fp32.
void quantize_values(BufferedMatrix& m, ValueStorage storage);

/// y = A·x with the multi-stage buffered kernel (Listing 3).
void spmv_buffered(const BufferedMatrix& a, std::span<const real> x,
                   std::span<real> y);

/// Work accounting: nnz FMAs; index and value bytes per FMA scaled by the
/// padded fraction (6 B/FMA unpadded at fp32, 4 at bf16/fp16), plus
/// staging traffic.
[[nodiscard]] perf::KernelWork buffered_work(const BufferedMatrix& a);

}  // namespace memxct::sparse
