#include "sparse/buffered.hpp"

#include <omp.h>

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

namespace {

/// Calls segment(r, q) and then entry(j, k) for the entries of forward rows
/// in partitions [p0, p1), row by row in ascending order, each row's
/// entries in ascending column c: k indexes a.ind/a.val, and column c is row
/// j of backward partition q (c = q * partsize + j). A row's columns ascend
/// across its stages (each stage holds the next chunk of the partition's
/// sorted footprint, in slot order), so a row's entries of one backward
/// partition are contiguous; segment runs once per (row, partition) pair,
/// before its entries.
template <class Segment, class Entry>
void walk_forward(const BufferedMatrix& a, idx_t p0, idx_t p1,
                  Segment&& segment, Entry&& entry) {
  const idx_t partsize = a.config.partsize;
  for (idx_t p = p0; p < p1; ++p) {
    const idx_t r0 = p * partsize;
    const idx_t rows = std::min(partsize, a.num_rows - r0);
    const idx_t s0 = a.partdispl[static_cast<std::size_t>(p)];
    const idx_t s1 = a.partdispl[static_cast<std::size_t>(p) + 1];
    for (idx_t j = 0; j < rows; ++j) {
      idx_t seg_begin = 0;
      idx_t seg_end = 0;  // no segment open yet
      for (idx_t s = s0; s < s1; ++s) {
        const RowRun run = a.row_run(s, j);
        const idx_t* const mp =
            a.map.data() + a.stagedispl[static_cast<std::size_t>(s)];
        for (idx_t e = 0; e < run.len; ++e) {
          const nnz_t k = run.at(e);
          const idx_t c = mp[a.ind[static_cast<std::size_t>(k)]];
          if (c >= seg_end) {
            const idx_t q = c / partsize;
            seg_begin = q * partsize;
            seg_end = seg_begin + partsize;
            segment(r0 + j, q);
          }
          entry(c - seg_begin, k);
        }
      }
    }
  }
}

}  // namespace

BufferedMatrix transpose_buffered(const BufferedMatrix& a) {
  MEMXCT_CHECK_MSG(a.storage == ValueStorage::Fp32,
                   "transpose_buffered reads the fp32 forward layout");
  BufferedMatrix t;
  t.num_rows = a.num_cols;
  t.num_cols = a.num_rows;
  t.config = a.config;
  const idx_t partsize = t.config.partsize;
  const idx_t buffsize = t.config.buffsize;
  const idx_t numparts = std::max<idx_t>(1, ceil_div(t.num_rows, partsize));
  const idx_t groups = t.num_groups();
  const idx_t fparts = a.num_partitions();
  const auto fgroups = static_cast<std::size_t>(a.num_groups());

  // Row j of any partition advances by its group's row count per entry.
  std::vector<idx_t> stride(static_cast<std::size_t>(partsize));
  for (idx_t j = 0; j < partsize; ++j)
    stride[static_cast<std::size_t>(j)] = t.group_rows(j / kSliceRows);

  // Per thread: `fp` holds, per backward partition, the thread's footprint
  // count and then its first footprint position; `cell` holds, per backward
  // (stage, row), the thread's entry count and then its next entry
  // position in ind/val.
  const int max_threads = omp_get_max_threads();
  std::vector<std::vector<idx_t>> fp(static_cast<std::size_t>(max_threads));
  std::vector<std::vector<nnz_t>> cell(static_cast<std::size_t>(max_threads));
  std::vector<idx_t> bound(static_cast<std::size_t>(max_threads) + 1);
#pragma omp parallel num_threads(max_threads)
  {
    const int nt = omp_get_num_threads();
    const int tid = omp_get_thread_num();
#pragma omp single
    {
      // Contiguous ranges of forward partitions with equal stored entries.
      const auto entries_before = [&a, fgroups](idx_t p) {
        return a.groupdispl[static_cast<std::size_t>(
                                a.partdispl[static_cast<std::size_t>(p)]) *
                            fgroups];
      };
      const nnz_t total = entries_before(fparts);
      idx_t p = 0;
      for (int i = 0; i < nt; ++i) {
        while (p < fparts && entries_before(p) < total * i / nt) ++p;
        bound[static_cast<std::size_t>(i)] = p;
      }
      bound[static_cast<std::size_t>(nt)] = fparts;
    }
    const idx_t p0 = bound[static_cast<std::size_t>(tid)];
    const idx_t p1 = bound[static_cast<std::size_t>(tid) + 1];
    auto& my_fp = fp[static_cast<std::size_t>(tid)];
    auto& my_cell = cell[static_cast<std::size_t>(tid)];

    // Walk 1: how many of the thread's rays each backward partition sees.
    my_fp.assign(static_cast<std::size_t>(numparts), 0);
    walk_forward(
        a, p0, p1,
        [&my_fp](idx_t, idx_t q) { ++my_fp[static_cast<std::size_t>(q)]; },
        [](idx_t, nnz_t) {});
#pragma omp barrier

    // Footprints, stages and map: partition q's footprint lists thread 0's
    // rays, then thread 1's, ..., each ascending, so it is sorted.
#pragma omp single
    {
      t.partdispl.resize(static_cast<std::size_t>(numparts) + 1);
      t.partdispl[0] = 0;
      t.stagedispl.assign(1, 0);
      t.stagenz.clear();
      for (idx_t q = 0; q < numparts; ++q) {
        idx_t pos = 0;
        for (int i = 0; i < nt; ++i) {
          idx_t& at = fp[static_cast<std::size_t>(i)][static_cast<std::size_t>(q)];
          const idx_t count = at;
          at = pos;
          pos += count;
        }
        const idx_t stages = std::max<idx_t>(1, ceil_div(pos, buffsize));
        t.partdispl[static_cast<std::size_t>(q) + 1] =
            t.partdispl[static_cast<std::size_t>(q)] + stages;
        for (idx_t s = 0; s < stages; ++s) {
          const idx_t nz = std::min(buffsize, pos - s * buffsize);
          t.stagenz.push_back(std::max<idx_t>(0, nz));
          t.stagedispl.push_back(t.stagedispl.back() + t.stagenz.back());
        }
      }
      t.map.resize(static_cast<std::size_t>(t.stagedispl.back()));
      t.rowlen.resize(static_cast<std::size_t>(t.num_stages()) * partsize);
    }

    // Walk 2: place each ray in its partitions' footprints and count the
    // entries of each backward (stage, row).
    std::vector<idx_t> next = my_fp;  // next footprint position
    my_cell.assign(t.rowlen.size(), 0);
    {
      nnz_t* cells = nullptr;  // the segment's stage, indexed by row
      walk_forward(
          a, p0, p1,
          [&](idx_t r, idx_t q) {
            const idx_t pos = next[static_cast<std::size_t>(q)]++;
            const idx_t stage0 = t.partdispl[static_cast<std::size_t>(q)];
            t.map[static_cast<std::size_t>(
                t.stagedispl[static_cast<std::size_t>(stage0)] + pos)] = r;
            cells = my_cell.data() +
                    static_cast<std::size_t>(stage0 + pos / buffsize) *
                        static_cast<std::size_t>(partsize);
          },
          [&cells](idx_t j, nnz_t) { ++cells[j]; });
    }
#pragma omp barrier

    // Row lengths are the threads' counts summed; then every group is as
    // wide as its longest row.
    const auto num_cells = static_cast<std::ptrdiff_t>(t.rowlen.size());
#pragma omp for schedule(static)
    for (std::ptrdiff_t c = 0; c < num_cells; ++c) {
      nnz_t len = 0;
      for (int i = 0; i < nt; ++i)
        len += cell[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
      t.rowlen[static_cast<std::size_t>(c)] = static_cast<idx_t>(len);
    }
#pragma omp single
    {
      const idx_t stages = t.num_stages();
      t.groupdispl.resize(static_cast<std::size_t>(stages) * groups + 1);
      t.groupdispl[0] = 0;
      for (idx_t s = 0; s < stages; ++s)
        for (idx_t g = 0; g < groups; ++g) {
          const idx_t* const len = t.rowlen.data() +
                                   static_cast<std::size_t>(s) * partsize +
                                   g * kSliceRows;
          const idx_t rows = t.group_rows(g);
          const auto at = static_cast<std::size_t>(s) * groups + g;
          t.groupdispl[at + 1] =
              t.groupdispl[at] +
              static_cast<nnz_t>(*std::max_element(len, len + rows)) * rows;
        }
      t.ind.resize(static_cast<std::size_t>(t.groupdispl.back()));
      t.val.resize(static_cast<std::size_t>(t.groupdispl.back()));
    }

    // Entry e of row j in a (stage, group) cell sits at groupdispl + e *
    // rows + (j mod kSliceRows); thread i's entries of the row follow
    // threads 0..i-1's, so each count becomes that thread's first position.
#pragma omp for schedule(static)
    for (std::ptrdiff_t c = 0; c < num_cells; ++c) {
      const auto s = static_cast<std::size_t>(c / partsize);
      const auto j = static_cast<idx_t>(c % partsize);
      const idx_t g = j / kSliceRows;
      nnz_t pos = t.groupdispl[s * groups + static_cast<std::size_t>(g)] +
                  (j - g * kSliceRows);
      for (int i = 0; i < nt; ++i) {
        nnz_t& at =
            cell[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
        const nnz_t count = at;
        at = pos;
        pos += count * stride[static_cast<std::size_t>(j)];
      }
    }

    // Walk 3: place every entry; its buffer slot is the ray's position
    // within the stage.
    next = my_fp;
    {
      nnz_t* cells = nullptr;
      buf_idx_t slot = 0;
      walk_forward(
          a, p0, p1,
          [&](idx_t, idx_t q) {
            const idx_t pos = next[static_cast<std::size_t>(q)]++;
            slot = static_cast<buf_idx_t>(pos % buffsize);
            cells = my_cell.data() +
                    static_cast<std::size_t>(
                        t.partdispl[static_cast<std::size_t>(q)] +
                        pos / buffsize) *
                        static_cast<std::size_t>(partsize);
          },
          [&](idx_t j, nnz_t k) {
            nnz_t& at = cells[j];
            t.ind[static_cast<std::size_t>(at)] = slot;
            t.val[static_cast<std::size_t>(at)] =
                a.val[static_cast<std::size_t>(k)];
            at += stride[static_cast<std::size_t>(j)];
          });
    }

    // Pads: every (stage, row) entry past the row's length is slot 0,
    // value 0. Disjoint from the entries, so no barrier is needed first.
#pragma omp for schedule(static)
    for (std::ptrdiff_t c = 0; c < num_cells; ++c) {
      const auto s = static_cast<std::size_t>(c / partsize);
      const auto j = static_cast<idx_t>(c % partsize);
      const idx_t g = j / kSliceRows;
      const auto at = s * groups + static_cast<std::size_t>(g);
      const nnz_t rows = stride[static_cast<std::size_t>(j)];
      const nnz_t end = t.groupdispl[at + 1];
      for (nnz_t pos = t.groupdispl[at] + (j - g * kSliceRows) +
                       rows * t.rowlen[static_cast<std::size_t>(c)];
           pos < end; pos += rows) {
        t.ind[static_cast<std::size_t>(pos)] = 0;
        t.val[static_cast<std::size_t>(pos)] = 0;
      }
    }
  }

  t.validate();
  return t;
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
