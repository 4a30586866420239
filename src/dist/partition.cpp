#include "dist/partition.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace memxct::dist {

DomainPartition::DomainPartition(int num_parts, std::vector<idx_t> rank_displ)
    : num_parts_(num_parts), rank_displ_(std::move(rank_displ)) {
  MEMXCT_CHECK(num_parts_ >= 1);
  MEMXCT_CHECK(static_cast<int>(rank_displ_.size()) == num_parts_ + 1);
  MEMXCT_CHECK(rank_displ_.front() == 0);
  for (int r = 0; r < num_parts_; ++r)
    MEMXCT_CHECK(rank_displ_[static_cast<std::size_t>(r)] <=
                 rank_displ_[static_cast<std::size_t>(r) + 1]);
}

int DomainPartition::owner(idx_t ordered) const {
  MEMXCT_CHECK(ordered >= 0 && ordered < total());
  const auto it =
      std::upper_bound(rank_displ_.begin(), rank_displ_.end(), ordered);
  return static_cast<int>(it - rank_displ_.begin()) - 1;
}

double DomainPartition::imbalance() const {
  idx_t max_size = 0;
  for (int r = 0; r < num_parts_; ++r)
    max_size = std::max(max_size, size(r));
  const double mean =
      static_cast<double>(total()) / static_cast<double>(num_parts_);
  return mean > 0.0 ? static_cast<double>(max_size) / mean : 1.0;
}

DomainPartition partition_by_tiles(const hilbert::Ordering& ordering,
                                   int num_parts) {
  MEMXCT_CHECK(num_parts >= 1);
  const idx_t total = ordering.size();
  std::vector<idx_t> displ(static_cast<std::size_t>(num_parts) + 1, 0);
  displ.back() = total;

  if (num_parts > ordering.num_tiles()) {
    // More ranks than tiles: exact cell cuts (loses tile alignment but
    // keeps every rank busy — matches the paper's note that granularity
    // bounds balance).
    for (int r = 1; r < num_parts; ++r)
      displ[static_cast<std::size_t>(r)] = static_cast<idx_t>(
          static_cast<std::int64_t>(total) * r / num_parts);
    return DomainPartition(num_parts, std::move(displ));
  }

  // Snap each ideal cut to the nearest tile boundary, keeping cuts strictly
  // increasing so no rank is empty.
  for (int r = 1; r < num_parts; ++r) {
    const auto ideal = static_cast<idx_t>(
        static_cast<std::int64_t>(total) * r / num_parts);
    // Find the tile whose start is nearest the ideal cut.
    idx_t best = displ[static_cast<std::size_t>(r - 1)] + 1;
    idx_t best_dist = std::numeric_limits<idx_t>::max();
    for (idx_t t = 0; t <= ordering.num_tiles(); ++t) {
      const idx_t boundary =
          t == ordering.num_tiles() ? total : ordering.tile_range(t).first;
      if (boundary <= displ[static_cast<std::size_t>(r - 1)]) continue;
      if (boundary >= total) break;
      const idx_t dist = boundary > ideal ? boundary - ideal : ideal - boundary;
      if (dist < best_dist) {
        best_dist = dist;
        best = boundary;
      }
    }
    displ[static_cast<std::size_t>(r)] = best;
  }
  return DomainPartition(num_parts, std::move(displ));
}

DomainPartition partition_by_weights(const hilbert::Ordering& ordering,
                                     std::span<const double> tile_weights,
                                     int num_parts) {
  MEMXCT_CHECK(num_parts >= 1);
  MEMXCT_CHECK(static_cast<idx_t>(tile_weights.size()) ==
               ordering.num_tiles());
  const idx_t total_cells = ordering.size();
  double total_weight = 0.0;
  for (const double w : tile_weights) {
    MEMXCT_CHECK(w >= 0.0);
    total_weight += w;
  }
  std::vector<idx_t> displ(static_cast<std::size_t>(num_parts) + 1, 0);
  displ.back() = total_cells;
  if (total_weight <= 0.0 || num_parts > ordering.num_tiles())
    return partition_by_tiles(ordering, num_parts);

  // Greedy sweep: cut when cumulative weight crosses each rank's ideal
  // share, choosing the nearer of the two candidate boundaries.
  double cumulative = 0.0;
  int rank = 1;
  for (idx_t t = 0; t < ordering.num_tiles() && rank < num_parts; ++t) {
    const double before = cumulative;
    cumulative += tile_weights[static_cast<std::size_t>(t)];
    const double ideal = total_weight * rank / num_parts;
    if (cumulative >= ideal) {
      // Cut before or after this tile, whichever lands closer to ideal —
      // but never produce an empty rank.
      const idx_t boundary_before = ordering.tile_range(t).first;
      const idx_t boundary_after = ordering.tile_range(t).second;
      const bool prefer_before =
          (ideal - before) < (cumulative - ideal) &&
          boundary_before > displ[static_cast<std::size_t>(rank - 1)];
      displ[static_cast<std::size_t>(rank)] =
          prefer_before ? boundary_before
                        : std::min(boundary_after, total_cells);
      if (displ[static_cast<std::size_t>(rank)] <=
          displ[static_cast<std::size_t>(rank - 1)])
        displ[static_cast<std::size_t>(rank)] =
            displ[static_cast<std::size_t>(rank - 1)] + 1;
      ++rank;
    }
  }
  // Any ranks not assigned (degenerate weights): split the tail evenly.
  for (; rank < num_parts; ++rank)
    displ[static_cast<std::size_t>(rank)] = std::min<idx_t>(
        total_cells,
        displ[static_cast<std::size_t>(rank - 1)] +
            std::max<idx_t>(1, (total_cells -
                                displ[static_cast<std::size_t>(rank - 1)]) /
                                   (num_parts - rank + 1)));
  return DomainPartition(num_parts, std::move(displ));
}

std::vector<double> tile_nnz_weights(const hilbert::Ordering& ordering,
                                     const sparse::CsrMatrix& matrix) {
  MEMXCT_CHECK(matrix.num_rows == ordering.size());
  std::vector<double> weights(static_cast<std::size_t>(ordering.num_tiles()),
                              0.0);
  for (idx_t t = 0; t < ordering.num_tiles(); ++t) {
    const auto [begin, end] = ordering.tile_range(t);
    weights[static_cast<std::size_t>(t)] =
        static_cast<double>(matrix.displ[end] - matrix.displ[begin]);
  }
  return weights;
}

double weighted_imbalance(const DomainPartition& partition,
                          const sparse::CsrMatrix& matrix) {
  MEMXCT_CHECK(matrix.num_rows == partition.total());
  double max_weight = 0.0;
  for (int r = 0; r < partition.num_parts(); ++r) {
    const double w = static_cast<double>(matrix.displ[partition.end(r)] -
                                         matrix.displ[partition.begin(r)]);
    max_weight = std::max(max_weight, w);
  }
  const double mean = static_cast<double>(matrix.nnz()) /
                      static_cast<double>(partition.num_parts());
  return mean > 0.0 ? max_weight / mean : 1.0;
}

}  // namespace memxct::dist
