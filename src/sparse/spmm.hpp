// Multi-RHS SpMV (SpMM): apply one memoized matrix to K right-hand-sides
// per pass over the nonzeros.
//
// MemXCT's iterative hot loop is bound by streaming the matrix (Section
// 3.3: 6 B/FMA after 16-bit buffering). Running S slices as S independent
// SpMVs re-reads ind/val from DRAM S times. These kernels stream each
// nonzero ONCE per K slices, cutting the regular matrix traffic per slice
// to ~1/K of the single-RHS cost (the staged x-value gathers of the
// buffered kernel remain per-slice; the map reads amortize).
//
// Layout: right-hand-sides are interleaved slice-major — slice s's element
// i lives at x[i*K + s] (common/interleave.hpp converts). One loaded
// (ind, val) pair then feeds K contiguous lanes, so `#pragma omp simd`
// vectorizes across the K dimension while EVERY slice keeps the exact
// per-row accumulation order of the single-RHS kernels.
//
// Bitwise-parity contract: for every kernel family, schedule, thread
// count, and K, deinterleaving lane s of the block result equals the
// corresponding single-RHS kernel's output bit for bit. Two ingredients
// make that hold: (1) every single-RHS kernel sums each row in row order,
// never a reassociating simd reduction — strictly scalar for CSR, row
// order per lane and SIMD across rows for the buffered and ELL layouts
// (sparse/buffered_kernel.hpp); and (2) each lane's per-nonzero update here
// has the same `acc += x*v` expression shape, with FP contraction off in
// every kernel TU.
#pragma once

#include <span>

#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/plan.hpp"
#include "sparse/spmv.hpp"

namespace memxct::sparse {

/// Widest supported block; bounds the per-row stack accumulator the CSR
/// and buffered kernels carry (64 lanes · 4 B = one 256 B stack array).
inline constexpr idx_t kMaxBlockWidth = 64;

/// y[r*k + s] = sum_j A[r,j] · x[j*k + s] — the baseline CSR kernel
/// (dynamic partition schedule) applied to k interleaved slices.
void spmm_csr(const CsrMatrix& a, idx_t k, std::span<const real> x,
              std::span<real> y, idx_t partsize = kCsrPartsize);

/// Multi-RHS form of the general-library CSR stand-in (static schedule).
void spmm_library(const CsrMatrix& a, idx_t k, std::span<const real> x,
                  std::span<real> y);

/// Multi-RHS block-ELL apply (dynamic schedule).
void spmm_ell(const EllBlockMatrix& a, idx_t k, std::span<const real> x,
              std::span<real> y);

/// Multi-RHS multi-stage buffered apply (dynamic schedule): each stage's
/// footprint is gathered once per slice into a k-wide interleaved buffer,
/// then each row group's kSliceRows rows accumulate all k slices from L1.
void spmm_buffered(const BufferedMatrix& a, idx_t k, std::span<const real> x,
                   std::span<real> y);

/// Planned (static nnz-balanced) variants; plans are the SAME objects the
/// single-RHS kernels use — the block path adds no plan state.
void spmm_csr_planned(const CsrMatrix& a, idx_t partsize,
                      const ApplyPlan& plan, idx_t k,
                      std::span<const real> x, std::span<real> y);

/// `ws` needs per-slot output capacity >= a.block_rows * k.
void spmm_ell_planned(const EllBlockMatrix& a, const ApplyPlan& plan,
                      Workspace& ws, idx_t k, std::span<const real> x,
                      std::span<real> y);

/// `ws` needs per-slot input capacity >= buffsize * k and output capacity
/// >= partsize * k.
void spmm_buffered_planned(const BufferedMatrix& a, const ApplyPlan& plan,
                           Workspace& ws, idx_t k, std::span<const real> x,
                           std::span<real> y);

}  // namespace memxct::sparse
