// Process-level domain decomposition over pseudo-Hilbert tiles
// (paper Section 3.4, Fig 4(b)).
//
// Both the tomogram and the sinogram are partitioned: each rank owns one
// contiguous range of ordered indices, cut at tile boundaries so every
// subdomain is a connected 2D region (the partition-locality property that
// keeps communication footprints small).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "hilbert/ordering.hpp"
#include "sparse/csr.hpp"

namespace memxct::dist {

/// Contiguous ordered-index ranges per rank.
class DomainPartition {
 public:
  DomainPartition(int num_parts, std::vector<idx_t> rank_displ);

  [[nodiscard]] int num_parts() const noexcept { return num_parts_; }
  [[nodiscard]] idx_t begin(int rank) const {
    return rank_displ_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] idx_t end(int rank) const {
    return rank_displ_[static_cast<std::size_t>(rank) + 1];
  }
  [[nodiscard]] idx_t size(int rank) const { return end(rank) - begin(rank); }
  [[nodiscard]] idx_t total() const noexcept { return rank_displ_.back(); }

  /// Owning rank of an ordered index (binary search).
  [[nodiscard]] int owner(idx_t ordered) const;

  /// Max/mean subdomain size ratio — the load-balance metric of
  /// Section 3.4 ("not perfectly load balanced ... improved by finer tile
  /// granularity").
  [[nodiscard]] double imbalance() const;

 private:
  int num_parts_;
  std::vector<idx_t> rank_displ_;
};

/// Splits `ordering` into `num_parts` contiguous ranges, snapping each cut
/// to the nearest tile boundary. Falls back to exact cell cuts when ranks
/// outnumber tiles.
[[nodiscard]] DomainPartition partition_by_tiles(
    const hilbert::Ordering& ordering, int num_parts);

/// Splits by per-tile *work weights* instead of cell counts: cuts are
/// placed at tile boundaries balancing cumulative weight. Projection work
/// per subdomain is proportional to its matrix nonzeros, not its cells
/// (boundary tiles and central tiles differ), so weighting by nnz improves
/// the balance the paper says tile granularity bounds.
[[nodiscard]] DomainPartition partition_by_weights(
    const hilbert::Ordering& ordering, std::span<const double> tile_weights,
    int num_parts);

/// Per-tile nonzero counts of a matrix whose ROWS live in this ordering's
/// index space (use A for the sinogram domain, A^T for the tomogram).
[[nodiscard]] std::vector<double> tile_nnz_weights(
    const hilbert::Ordering& ordering, const sparse::CsrMatrix& matrix);

/// Work imbalance of a partition under per-row weights: max over ranks of
/// (rank weight) / (mean rank weight).
[[nodiscard]] double weighted_imbalance(const DomainPartition& partition,
                                        const sparse::CsrMatrix& matrix);

}  // namespace memxct::dist
