// Reference for the buffered layout's bitwise-parity tests: the row-run
// layout and row-order scalar kernel that the in-stage sliced layout
// (sparse/buffered.hpp) replaced, kept test-local so every buffered path
// can be memcmp'd against exactly what it used to compute.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/grid.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"

namespace memxct::testutil {

/// Copy of `a` with every value rounded through `storage`: the values the
/// reduced-precision kernels multiply with, so the row-order reference
/// built from it is what they must reproduce bit for bit.
inline sparse::CsrMatrix quantized(const sparse::CsrMatrix& a,
                                   sparse::ValueStorage storage) {
  sparse::CsrMatrix q = a;
  for (auto& v : q.val) v = sparse::quantize(v, storage);
  return q;
}

/// build_buffered plus the quantize pass, as MemXCTOperator builds it.
inline sparse::BufferedMatrix build_stored(const sparse::CsrMatrix& a,
                                           const sparse::BufferConfig& config,
                                           sparse::ValueStorage storage) {
  sparse::BufferedMatrix b = sparse::build_buffered(a, config);
  sparse::quantize_values(b, storage);
  return b;
}

/// Listing 3's row-run layout: each (stage, row) cell's entries are one
/// contiguous run [displ[cell], displ[cell + 1]), cells stage-major
/// (cell = stage*partsize + j).
struct RowRunBuffered {
  idx_t num_rows = 0;
  idx_t num_cols = 0;
  sparse::BufferConfig config;
  std::vector<idx_t> partdispl;
  std::vector<nnz_t> stagedispl;
  std::vector<idx_t> stagenz;
  std::vector<idx_t> map;
  std::vector<nnz_t> displ;
  std::vector<buf_idx_t> ind;
  std::vector<real> val;

  [[nodiscard]] idx_t num_stages() const noexcept {
    return static_cast<idx_t>(stagenz.size());
  }
};

/// Per partition: copy every nonzero's column, sort and deduplicate the
/// copy, then place each entry by a binary search into the distinct
/// columns — the construction the stamp/slot-table builder replaced.
inline RowRunBuffered build_buffered_sort_and_search(
    const sparse::CsrMatrix& a, const sparse::BufferConfig& config) {
  RowRunBuffered b;
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

/// y = A·x with the row-order scalar kernel over the row-run layout: per
/// stage, each row sums its run in order from 0, then adds that sum to
/// its output. Serial; the parallel kernels' partitions are independent.
inline void spmv_row_order(const RowRunBuffered& a, std::span<const real> x,
                           std::span<real> y) {
  const idx_t partsize = a.config.partsize;
  std::vector<real> input(static_cast<std::size_t>(a.config.buffsize));
  std::vector<real> output(static_cast<std::size_t>(partsize));
  const auto numparts = static_cast<idx_t>(a.partdispl.size()) - 1;
  for (idx_t part = 0; part < numparts; ++part) {
    std::fill(output.begin(), output.end(), real{0});
    for (idx_t stage = a.partdispl[static_cast<std::size_t>(part)];
         stage < a.partdispl[static_cast<std::size_t>(part) + 1]; ++stage) {
      const nnz_t mstart = a.stagedispl[static_cast<std::size_t>(stage)];
      for (idx_t i = 0; i < a.stagenz[static_cast<std::size_t>(stage)]; ++i)
        input[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(
            a.map[static_cast<std::size_t>(mstart + i)])];
      const auto dstart = static_cast<std::size_t>(stage) * partsize;
      for (idx_t j = 0; j < partsize; ++j) {
        real acc = 0;
        for (nnz_t i = a.displ[dstart + static_cast<std::size_t>(j)];
             i < a.displ[dstart + static_cast<std::size_t>(j) + 1]; ++i)
          acc += input[a.ind[static_cast<std::size_t>(i)]] *
                 a.val[static_cast<std::size_t>(i)];
        output[static_cast<std::size_t>(j)] += acc;
      }
    }
    const idx_t rstart = part * partsize;
    const idx_t rows = std::min<idx_t>(partsize, a.num_rows - rstart);
    for (idx_t i = 0; i < rows; ++i)
      y[static_cast<std::size_t>(rstart + i)] =
          output[static_cast<std::size_t>(i)];
  }
}

}  // namespace memxct::testutil
