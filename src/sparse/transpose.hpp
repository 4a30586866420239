// Scan-based, order-preserving sparse transposition (paper Section 3.5.1).
//
// MemXCT builds the backprojection matrix A^T from A with a scan-based
// transposition that keeps row-segment relative order (so the pseudo-Hilbert
// data locality survives), instead of an atomic scatter that would randomize
// entry order.
#pragma once

#include "sparse/csr.hpp"

namespace memxct::sparse {

/// Returns A^T. A counting sort over contiguous, nnz-balanced chunks of
/// source rows, one per OpenMP thread: per-thread column histograms are
/// scanned into per-thread placement cursors (thread i's entries of column
/// c follow those of threads 0..i-1), and each thread then places its chunk
/// in row order. Entries within each transposed row therefore appear in
/// increasing original-row order (sorted, preserving locality), and the
/// output is bitwise the same under any thread count.
[[nodiscard]] CsrMatrix transpose(const CsrMatrix& a);

/// The alternative Section 3.5.1 rejects: an atomic-cursor parallel
/// scatter whose thread interleaving *randomizes* the entry order within
/// each transposed row. Numerically a valid transpose, but it destroys the
/// pseudo-Hilbert locality the downstream kernels rely on — kept as the
/// ablation comparator (bench_ablation_transpose).
[[nodiscard]] CsrMatrix transpose_atomic(const CsrMatrix& a);

}  // namespace memxct::sparse
