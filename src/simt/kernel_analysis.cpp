#include "simt/kernel_analysis.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace memxct::simt {

namespace {

constexpr std::uint64_t kIndBase = 0x10000000;
constexpr std::uint64_t kValBase = 0x20000000;
constexpr std::uint64_t kXBase = 0x30000000;

}  // namespace

EllAccessReport analyze_ell_spmv(const sparse::EllBlockMatrix& m,
                                 EllLaneOrder lane_order,
                                 const SimtConfig& config,
                                 idx_t sample_blocks) {
  EllAccessReport report;
  const idx_t num_blocks = m.num_blocks();
  const idx_t stride =
      (sample_blocks > 0 && num_blocks > sample_blocks)
          ? num_blocks / sample_blocks
          : 1;
  std::vector<std::uint64_t> ind_addr, val_addr, x_addr;

  for (idx_t b = 0; b < num_blocks; b += stride) {
    const nnz_t base = m.block_displ[static_cast<std::size_t>(b)];
    const idx_t width = m.block_width[static_cast<std::size_t>(b)];
    const idx_t rows_in_block =
        std::min<idx_t>(m.block_rows, m.num_rows - b * m.block_rows);
    // One warp covers warp_size consecutive lanes (rows of the block).
    for (idx_t warp0 = 0; warp0 < rows_in_block; warp0 += config.warp_size) {
      const idx_t lanes =
          std::min<idx_t>(config.warp_size, rows_in_block - warp0);
      for (idx_t w = 0; w < width; ++w) {
        ind_addr.clear();
        val_addr.clear();
        x_addr.clear();
        for (idx_t lane = 0; lane < lanes; ++lane) {
          // Element index in storage: column-major interleaves lanes
          // (consecutive addresses per step); row-major gives each lane a
          // contiguous row, so a warp step strides by the padded width.
          const nnz_t elem =
              lane_order == EllLaneOrder::ColumnMajor
                  ? base + static_cast<nnz_t>(w) * m.block_rows +
                        (warp0 + lane)
                  : base + static_cast<nnz_t>(warp0 + lane) * width + w;
          ind_addr.push_back(kIndBase +
                             static_cast<std::uint64_t>(elem) * sizeof(idx_t));
          val_addr.push_back(kValBase +
                             static_cast<std::uint64_t>(elem) * sizeof(real));
          // The gathered x address uses the stored column index; both
          // layouts hold the same logical element set per (lane, w).
          const nnz_t stored =
              base + static_cast<nnz_t>(w) * m.block_rows + (warp0 + lane);
          x_addr.push_back(
              kXBase +
              static_cast<std::uint64_t>(
                  m.ind[static_cast<std::size_t>(stored)]) *
                  sizeof(real));
        }
        report.warp_steps += 1;
        report.stream_transactions += warp_transactions(ind_addr, config) +
                                      warp_transactions(val_addr, config);
        report.gather_transactions += warp_transactions(x_addr, config);
      }
    }
  }
  return report;
}

BufferedAccessReport analyze_buffered_spmv(const sparse::BufferedMatrix& m,
                                           const SimtConfig& config,
                                           idx_t sample_partitions) {
  BufferedAccessReport report;
  const idx_t numparts = m.num_partitions();
  const idx_t stride =
      (sample_partitions > 0 && numparts > sample_partitions)
          ? numparts / sample_partitions
          : 1;
  std::vector<std::uint64_t> addr;
  std::vector<idx_t> words;
  double conflict_sum = 0.0;

  for (idx_t part = 0; part < numparts; part += stride) {
    for (idx_t stage = m.partdispl[static_cast<std::size_t>(part)];
         stage < m.partdispl[static_cast<std::size_t>(part) + 1]; ++stage) {
      // Staging: warp_size consecutive lanes gather x[map[start + lane]].
      const nnz_t mstart = m.stagedispl[static_cast<std::size_t>(stage)];
      const idx_t nz = m.stagenz[static_cast<std::size_t>(stage)];
      for (idx_t i = 0; i < nz; i += config.warp_size) {
        const idx_t lanes = std::min<idx_t>(config.warp_size, nz - i);
        addr.clear();
        for (idx_t lane = 0; lane < lanes; ++lane)
          addr.push_back(kXBase + static_cast<std::uint64_t>(
                                      m.map[static_cast<std::size_t>(
                                          mstart + i + lane)]) *
                                      sizeof(real));
        report.staging_warp_steps += 1;
        report.staging_transactions += warp_transactions(addr, config);
      }

      // Compute: lanes = consecutive rows of the partition; at element
      // step e, each lane reads buffer word ind of its row run's entry e.
      for (idx_t warp0 = 0; warp0 < m.config.partsize;
           warp0 += config.warp_size) {
        const idx_t lanes =
            std::min<idx_t>(config.warp_size, m.config.partsize - warp0);
        // Longest lane bounds the step count for this warp.
        idx_t max_len = 0;
        for (idx_t lane = 0; lane < lanes; ++lane)
          max_len = std::max(max_len, m.row_run(stage, warp0 + lane).len);
        for (idx_t e = 0; e < max_len; ++e) {
          words.clear();
          for (idx_t lane = 0; lane < lanes; ++lane) {
            const sparse::RowRun run = m.row_run(stage, warp0 + lane);
            if (e < run.len)
              words.push_back(static_cast<idx_t>(
                  m.ind[static_cast<std::size_t>(run.at(e))]));
          }
          if (words.empty()) continue;
          const int degree = bank_conflict_degree(words, config);
          report.compute_warp_steps += 1;
          if (degree > 1) report.bank_conflict_steps += 1;
          conflict_sum += degree;
          report.max_conflict_degree =
              std::max(report.max_conflict_degree, static_cast<double>(degree));
        }
      }
    }
  }
  report.mean_conflict_degree =
      report.compute_warp_steps > 0
          ? conflict_sum / static_cast<double>(report.compute_warp_steps)
          : 1.0;
  return report;
}

}  // namespace memxct::simt
