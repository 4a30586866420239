#include "sparse/buffered.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "sparse/buffered_kernel.hpp"

namespace memxct::sparse {

nnz_t BufferedMatrix::nnz() const noexcept {
  return std::accumulate(rowlen.begin(), rowlen.end(), nnz_t{0});
}

std::int64_t BufferedMatrix::bytes() const noexcept {
  return static_cast<std::int64_t>(
      partdispl.size() * sizeof(idx_t) + stagedispl.size() * sizeof(nnz_t) +
      stagenz.size() * sizeof(idx_t) + map.size() * sizeof(idx_t) +
      groupdispl.size() * sizeof(nnz_t) + rowlen.size() * sizeof(idx_t) +
      ind.size() * sizeof(buf_idx_t) + val.size() * sizeof(real) +
      val16.size() * sizeof(std::uint16_t));
}

void BufferedMatrix::validate() const {
  MEMXCT_CHECK(config.partsize > 0);
  MEMXCT_CHECK(config.buffsize > 0 && config.buffsize <= 65536);
  MEMXCT_CHECK(!partdispl.empty() && partdispl.front() == 0);
  MEMXCT_CHECK(partdispl.back() == num_stages());
  MEMXCT_CHECK(stagedispl.size() == stagenz.size() + 1);
  MEMXCT_CHECK(stagedispl.back() == static_cast<nnz_t>(map.size()));
  for (idx_t s = 0; s < num_stages(); ++s) {
    MEMXCT_CHECK_MSG(stagenz[static_cast<std::size_t>(s)] <= config.buffsize,
                     "stage exceeds buffer capacity");
    MEMXCT_CHECK(stagedispl[static_cast<std::size_t>(s)] +
                     stagenz[static_cast<std::size_t>(s)] ==
                 stagedispl[static_cast<std::size_t>(s) + 1]);
  }
  for (const idx_t m : map) MEMXCT_CHECK(m >= 0 && m < num_cols);
  const idx_t groups = num_groups();
  const auto stages = static_cast<std::size_t>(num_stages());
  MEMXCT_CHECK(rowlen.size() ==
               stages * static_cast<std::size_t>(config.partsize));
  MEMXCT_CHECK(groupdispl.size() ==
               stages * static_cast<std::size_t>(groups) + 1);
  MEMXCT_CHECK(groupdispl.front() == 0 &&
               groupdispl.back() == static_cast<nnz_t>(ind.size()));
  const bool fp32 = storage == ValueStorage::Fp32;
  MEMXCT_CHECK((fp32 ? val.size() : val16.size()) == ind.size() &&
               (fp32 ? val16.size() : val.size()) == 0);
  // Every group is exactly as wide as its longest row in that stage.
  for (std::size_t s = 0; s < stages; ++s)
    for (idx_t g = 0; g < groups; ++g) {
      const std::size_t cell = s * static_cast<std::size_t>(groups) +
                               static_cast<std::size_t>(g);
      const idx_t rows = group_rows(g);
      const nnz_t size = groupdispl[cell + 1] - groupdispl[cell];
      MEMXCT_CHECK_MSG(size >= 0 && size % rows == 0,
                       "group size is not a whole number of columns");
      idx_t width = 0;
      for (idx_t r = 0; r < rows; ++r) {
        const idx_t len =
            row_run(static_cast<idx_t>(s), g * kSliceRows + r).len;
        MEMXCT_CHECK(len >= 0 && len <= stagenz[s]);
        width = std::max(width, len);
      }
      MEMXCT_CHECK_MSG(size / rows == width,
                       "group is not padded to its longest row");
    }
}

BufferedMatrix build_buffered(const CsrMatrix& a, const BufferConfig& config) {
  MEMXCT_CHECK(config.partsize >= 1);
  MEMXCT_CHECK_MSG(config.buffsize >= 1 && config.buffsize <= 65536,
                   "16-bit buffer addressing limits buffsize to 65536");
  BufferedMatrix b;
  b.num_rows = a.num_rows;
  b.num_cols = a.num_cols;
  b.config = config;

  const idx_t partsize = config.partsize;
  const idx_t buffsize = config.buffsize;
  const idx_t numparts = std::max<idx_t>(1, ceil_div(a.num_rows, partsize));
  const idx_t groups = b.num_groups();

  // Width of group g of a partition-local stage: its longest row.
  const auto group_width = [&b, partsize](const idx_t* rowlen, idx_t s,
                                          idx_t g) {
    const idx_t* const len =
        rowlen + static_cast<std::size_t>(s) * partsize + g * kSliceRows;
    return *std::max_element(len, len + b.group_rows(g));
  };

  // Pass 1 (parallel): per-partition footprint, per-(stage, row) entry
  // counts and padded size, so global arrays can be sized and filled
  // without synchronization. A per-thread stamp of num_cols entries marks
  // each column with the last partition that touched it, so only the
  // distinct columns are collected and sorted (a few thousand per
  // Hilbert-ordered partition, against tens of thousands of nonzeros).
  struct PartPlan {
    std::vector<idx_t> cols;    // sorted distinct columns of the partition
    std::vector<idx_t> rowlen;  // per (stage, row) entry counts
    nnz_t padded = 0;           // stored entries, padding included
  };
  std::vector<PartPlan> plans(static_cast<std::size_t>(numparts));
#pragma omp parallel
  {
    std::vector<idx_t> stamp(static_cast<std::size_t>(a.num_cols), -1);
#pragma omp for schedule(dynamic, 4)
    for (idx_t p = 0; p < numparts; ++p) {
      auto& plan = plans[static_cast<std::size_t>(p)];
      const idx_t r0 = p * partsize;
      const idx_t r1 = std::min<idx_t>(r0 + partsize, a.num_rows);
      for (nnz_t k = a.displ[r0]; k < a.displ[r1]; ++k) {
        idx_t& mark = stamp[static_cast<std::size_t>(a.ind[k])];
        if (mark != p) {
          mark = p;
          plan.cols.push_back(a.ind[k]);
        }
      }
      std::sort(plan.cols.begin(), plan.cols.end());
      const idx_t stages = std::max<idx_t>(
          1, ceil_div(static_cast<idx_t>(plan.cols.size()), buffsize));
      plan.rowlen.assign(static_cast<std::size_t>(stages) * partsize, 0);
      // A CSR row is column-sorted, so its entries of stage s are the run
      // between the first columns of stages s and s + 1: two binary
      // searches per stage, not a pass over the entries.
      for (idx_t r = r0; r < r1; ++r) {
        const idx_t* run = a.ind.data() + a.displ[r];
        const idx_t* const end = a.ind.data() + a.displ[r + 1];
        for (idx_t s = 0; s < stages; ++s) {
          const idx_t* const next =
              s + 1 < stages
                  ? std::lower_bound(
                        run, end,
                        plan.cols[static_cast<std::size_t>(s + 1) * buffsize])
                  : end;
          plan.rowlen[static_cast<std::size_t>(s) * partsize + (r - r0)] =
              static_cast<idx_t>(next - run);
          run = next;
        }
      }
      for (idx_t s = 0; s < stages; ++s)
        for (idx_t g = 0; g < groups; ++g)
          plan.padded += static_cast<nnz_t>(
                             group_width(plan.rowlen.data(), s, g)) *
                         b.group_rows(g);
    }
  }

  // Prefix sums over partitions: stage counts, map sizes, padded entries.
  b.partdispl.resize(static_cast<std::size_t>(numparts) + 1);
  b.partdispl[0] = 0;
  std::vector<nnz_t> part_start(static_cast<std::size_t>(numparts) + 1, 0);
  nnz_t total_map = 0;
  for (idx_t p = 0; p < numparts; ++p) {
    const auto& plan = plans[static_cast<std::size_t>(p)];
    const auto stages = static_cast<idx_t>(plan.rowlen.size()) / partsize;
    b.partdispl[static_cast<std::size_t>(p) + 1] =
        b.partdispl[static_cast<std::size_t>(p)] + stages;
    total_map += static_cast<nnz_t>(plan.cols.size());
    part_start[static_cast<std::size_t>(p) + 1] =
        part_start[static_cast<std::size_t>(p)] + plan.padded;
  }
  const idx_t total_stages = b.partdispl.back();

  b.stagedispl.resize(static_cast<std::size_t>(total_stages) + 1);
  b.stagenz.resize(static_cast<std::size_t>(total_stages));
  b.map.resize(static_cast<std::size_t>(total_map));
  b.groupdispl.resize(static_cast<std::size_t>(total_stages) * groups + 1);
  b.rowlen.resize(static_cast<std::size_t>(total_stages) * partsize);
  b.ind.resize(static_cast<std::size_t>(part_start.back()));
  b.val.resize(static_cast<std::size_t>(part_start.back()));

  // Stage starts into map: stage s of partition p holds the s-th buffsize
  // chunk of the partition's distinct columns.
  b.stagedispl[0] = 0;
  {
    idx_t s = 0;
    for (idx_t p = 0; p < numparts; ++p) {
      const auto& plan = plans[static_cast<std::size_t>(p)];
      const idx_t stages =
          b.partdispl[static_cast<std::size_t>(p) + 1] -
          b.partdispl[static_cast<std::size_t>(p)];
      for (idx_t k = 0; k < stages; ++k, ++s) {
        const auto lo = static_cast<nnz_t>(k) * buffsize;
        const auto hi = std::min<nnz_t>(
            lo + buffsize, static_cast<nnz_t>(plan.cols.size()));
        b.stagenz[static_cast<std::size_t>(s)] =
            static_cast<idx_t>(hi > lo ? hi - lo : 0);
        b.stagedispl[static_cast<std::size_t>(s) + 1] =
            b.stagedispl[static_cast<std::size_t>(s)] +
            b.stagenz[static_cast<std::size_t>(s)];
      }
    }
    MEMXCT_CHECK(s == total_stages);
  }

  // Pass 2 (parallel): fill map, rowlen, groupdispl, ind and val per
  // partition. A per-thread dense slot table of num_cols entries maps each
  // footprint column to its stage and 16-bit buffer slot (its position in
  // the sorted distinct columns, split by buffsize); only the partition's
  // own columns are written, and every entry then finds both with one
  // load. Each (stage, group) cell is a column-major block of width x rows
  // entries, so a row's consecutive entries are group_rows apart; a
  // per-(stage, row) cursor holds the position of the row's next entry.
  // CSR rows are column-sorted, so a row's entries in one stage arrive in
  // ascending slot order. Every pad entry is then written explicitly as
  // slot 0, value 0.
  struct Slot {
    idx_t stage;  // stage within the partition
    idx_t slot;   // buffer-local index within that stage
  };
  b.groupdispl[0] = 0;
#pragma omp parallel
  {
    std::vector<Slot> slot(static_cast<std::size_t>(a.num_cols));
    std::vector<nnz_t> next;  // per (stage, row): next entry position
#pragma omp for schedule(dynamic, 4)
    for (idx_t p = 0; p < numparts; ++p) {
      const auto& plan = plans[static_cast<std::size_t>(p)];
      const idx_t r0 = p * partsize;
      const idx_t r1 = std::min<idx_t>(r0 + partsize, a.num_rows);
      const idx_t stage0 = b.partdispl[static_cast<std::size_t>(p)];
      const idx_t stages =
          b.partdispl[static_cast<std::size_t>(p) + 1] - stage0;

      std::copy(plan.cols.begin(), plan.cols.end(),
                b.map.begin() + b.stagedispl[static_cast<std::size_t>(stage0)]);
      std::copy(plan.rowlen.begin(), plan.rowlen.end(),
                b.rowlen.begin() +
                    static_cast<std::ptrdiff_t>(stage0) * partsize);
      const auto ncols = static_cast<idx_t>(plan.cols.size());
      for (idx_t s = 0, pos = 0; pos < ncols; ++s)
        for (idx_t i = 0; i < buffsize && pos < ncols; ++i, ++pos)
          slot[static_cast<std::size_t>(
              plan.cols[static_cast<std::size_t>(pos)])] = Slot{s, i};

      next.resize(plan.rowlen.size());
      nnz_t at = part_start[static_cast<std::size_t>(p)];
      for (idx_t s = 0; s < stages; ++s)
        for (idx_t g = 0; g < groups; ++g) {
          const idx_t j0 = g * kSliceRows;
          const idx_t rows = b.group_rows(g);
          for (idx_t r = 0; r < rows; ++r)
            next[static_cast<std::size_t>(s) * partsize + j0 + r] = at + r;
          at += static_cast<nnz_t>(group_width(plan.rowlen.data(), s, g)) *
                rows;
          b.groupdispl[(static_cast<std::size_t>(stage0) + s) * groups + g +
                       1] = at;
        }
      MEMXCT_CHECK(at == part_start[static_cast<std::size_t>(p) + 1]);

      for (idx_t r = r0; r < r1; ++r) {
        const idx_t j = r - r0;
        const idx_t stride = b.group_rows(j / kSliceRows);
        for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
          const Slot e = slot[static_cast<std::size_t>(a.ind[k])];
          nnz_t& pos = next[static_cast<std::size_t>(e.stage) * partsize + j];
          b.ind[static_cast<std::size_t>(pos)] = static_cast<buf_idx_t>(e.slot);
          b.val[static_cast<std::size_t>(pos)] = a.val[k];
          pos += stride;
        }
      }
      for (idx_t s = 0; s < stages; ++s)
        for (idx_t g = 0; g < groups; ++g) {
          const idx_t j0 = g * kSliceRows;
          const idx_t rows = b.group_rows(g);
          const nnz_t end =
              b.groupdispl[(static_cast<std::size_t>(stage0) + s) * groups +
                           g + 1];
          for (idx_t j = j0; j < j0 + rows; ++j)
            for (nnz_t pos = next[static_cast<std::size_t>(s) * partsize + j];
                 pos < end; pos += rows) {
              b.ind[static_cast<std::size_t>(pos)] = 0;
              b.val[static_cast<std::size_t>(pos)] = 0;
            }
        }
    }
  }

  b.validate();
  return b;
}

void quantize_values(BufferedMatrix& m, ValueStorage storage) {
  MEMXCT_CHECK(m.storage == ValueStorage::Fp32);
  if (storage == ValueStorage::Fp32) return;
  const auto n = static_cast<std::ptrdiff_t>(m.val.size());
  m.val16.resize(m.val.size());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < n; ++i)
    m.val16[static_cast<std::size_t>(i)] =
        encode_value(m.val[static_cast<std::size_t>(i)], storage);
  m.val = AlignedVector<real>{};
  m.storage = storage;
}

void spmv_buffered(const BufferedMatrix& a, std::span<const real> x,
                   std::span<real> y) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y.size()) == a.num_rows);
  detail::apply_dynamic(a, 1, x.data(), y.data());
}

perf::KernelWork buffered_work(const BufferedMatrix& a) {
  perf::KernelWork w;
  w.nnz = a.nnz();
  w.staged_words = a.total_staged();
  // Padding is streamed like real entries: its index and value bytes are
  // charged to the real FMAs.
  const double padding =
      w.nnz > 0 ? static_cast<double>(a.padded_nnz()) /
                      static_cast<double>(w.nnz)
                : 1.0;
  w.index_bytes_per_fma = sizeof(buf_idx_t) * padding;
  w.value_bytes_per_fma = bytes_per_value(a.storage) * padding;
  return w;
}

}  // namespace memxct::sparse
