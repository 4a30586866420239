#include "sparse/transpose.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/error.hpp"

namespace memxct::sparse {

CsrMatrix transpose(const CsrMatrix& a) {
  CsrMatrix t;
  t.num_rows = a.num_cols;
  t.num_cols = a.num_rows;
  t.displ.assign(static_cast<std::size_t>(t.num_rows) + 1, 0);
  t.ind.resize(static_cast<std::size_t>(a.nnz()));
  t.val.resize(static_cast<std::size_t>(a.nnz()));

  // Both passes run inside one parallel region of a fixed team, and every
  // thread walks the same contiguous, nnz-balanced chunk of source rows in
  // both, with chunks ascending by thread number.
  const int max_threads = omp_get_max_threads();
  std::vector<std::vector<nnz_t>> cursor(static_cast<std::size_t>(max_threads));
  std::vector<idx_t> bound(static_cast<std::size_t>(max_threads) + 1);
#pragma omp parallel num_threads(max_threads)
  {
    const int nt = omp_get_num_threads();
    const int tid = omp_get_thread_num();
#pragma omp single
    {
      // Chunk boundaries split the nonzeros evenly across the team.
      for (int i = 0; i < nt; ++i)
        bound[static_cast<std::size_t>(i)] = static_cast<idx_t>(
            std::lower_bound(a.displ.begin(), a.displ.end(),
                             a.nnz() * i / nt) -
            a.displ.begin());
      bound[static_cast<std::size_t>(nt)] = a.num_rows;
    }
    const idx_t r0 = bound[static_cast<std::size_t>(tid)];
    const idx_t r1 = bound[static_cast<std::size_t>(tid) + 1];

    // Pass 1: per-thread column histogram of the chunk.
    auto& h = cursor[static_cast<std::size_t>(tid)];
    h.assign(static_cast<std::size_t>(a.num_cols), 0);
    for (nnz_t k = a.displ[r0]; k < a.displ[r1]; ++k)
      ++h[static_cast<std::size_t>(a.ind[k])];
#pragma omp barrier

    // Scan: column c's entries from thread i start at displ[c] plus the
    // counts of threads 0..i-1, so each histogram becomes that thread's
    // placement cursors.
#pragma omp single
    for (idx_t c = 0; c < a.num_cols; ++c) {
      nnz_t pos = t.displ[static_cast<std::size_t>(c)];
      for (int i = 0; i < nt; ++i) {
        nnz_t& cell =
            cursor[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
        const nnz_t count = cell;
        cell = pos;
        pos += count;
      }
      t.displ[static_cast<std::size_t>(c) + 1] = pos;
    }

    // Pass 2: ordered placement. Each thread appends its chunk's entries in
    // ascending source-row order at its own cursors, and lower chunks own
    // lower positions of every transposed row, so each transposed row lists
    // its entries by ascending original row — the order-preserving property
    // Section 3.5.1 requires — whatever the team size.
    for (idx_t r = r0; r < r1; ++r)
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
        const nnz_t pos = h[static_cast<std::size_t>(a.ind[k])]++;
        t.ind[static_cast<std::size_t>(pos)] = r;
        t.val[static_cast<std::size_t>(pos)] = a.val[k];
      }
  }
  MEMXCT_CHECK(t.displ.back() == a.nnz());
  return t;
}

CsrMatrix transpose_atomic(const CsrMatrix& a) {
  CsrMatrix t;
  t.num_rows = a.num_cols;
  t.num_cols = a.num_rows;
  t.displ.assign(static_cast<std::size_t>(t.num_rows) + 1, 0);
  for (idx_t r = 0; r < a.num_rows; ++r)
    for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k)
      ++t.displ[static_cast<std::size_t>(a.ind[k]) + 1];
  for (idx_t c = 0; c < a.num_cols; ++c)
    t.displ[static_cast<std::size_t>(c) + 1] +=
        t.displ[static_cast<std::size_t>(c)];
  t.ind.resize(static_cast<std::size_t>(a.nnz()));
  t.val.resize(static_cast<std::size_t>(a.nnz()));

  std::vector<std::atomic<nnz_t>> cursor(static_cast<std::size_t>(a.num_cols));
  for (idx_t c = 0; c < a.num_cols; ++c)
    cursor[static_cast<std::size_t>(c)].store(
        t.displ[static_cast<std::size_t>(c)], std::memory_order_relaxed);
  // Dynamic scheduling deliberately interleaves rows across threads; with
  // more than one thread the within-row arrival order becomes
  // nondeterministic (and even single-threaded, the dynamic chunk order
  // need not be ascending).
#pragma omp parallel for schedule(dynamic, 64)
  for (idx_t r = 0; r < a.num_rows; ++r)
    for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
      const nnz_t pos = cursor[static_cast<std::size_t>(a.ind[k])].fetch_add(
          1, std::memory_order_relaxed);
      t.ind[static_cast<std::size_t>(pos)] = r;
      t.val[static_cast<std::size_t>(pos)] = a.val[k];
    }
  return t;
}

}  // namespace memxct::sparse
