// Tests for tile-aligned domain decomposition (Section 3.4).
#include <gtest/gtest.h>

#include "dist/partition.hpp"
#include "geometry/projector.hpp"

namespace memxct::dist {
namespace {

TEST(Partition, RangesCoverDomainWithoutOverlap) {
  const hilbert::Ordering ord({45, 32}, hilbert::CurveKind::Hilbert, 8);
  for (const int ranks : {1, 2, 3, 7, 16}) {
    const auto part = partition_by_tiles(ord, ranks);
    EXPECT_EQ(part.num_parts(), ranks);
    EXPECT_EQ(part.total(), ord.size());
    idx_t covered = 0;
    for (int r = 0; r < ranks; ++r) {
      EXPECT_EQ(part.begin(r), covered);
      covered += part.size(r);
    }
    EXPECT_EQ(covered, ord.size());
  }
}

TEST(Partition, OwnerIsConsistentWithRanges) {
  const hilbert::Ordering ord({64, 64}, hilbert::CurveKind::Hilbert, 16);
  const auto part = partition_by_tiles(ord, 5);
  for (int r = 0; r < part.num_parts(); ++r) {
    if (part.size(r) == 0) continue;
    EXPECT_EQ(part.owner(part.begin(r)), r);
    EXPECT_EQ(part.owner(part.end(r) - 1), r);
  }
  EXPECT_THROW((void)part.owner(-1), InvariantError);
  EXPECT_THROW((void)part.owner(ord.size()), InvariantError);
}

TEST(Partition, CutsFallOnTileBoundaries) {
  const hilbert::Ordering ord({64, 64}, hilbert::CurveKind::Hilbert, 8);
  const auto part = partition_by_tiles(ord, 7);
  // Every internal cut must coincide with some tile start.
  for (int r = 1; r < part.num_parts(); ++r) {
    bool on_boundary = false;
    for (idx_t t = 0; t < ord.num_tiles(); ++t)
      if (ord.tile_range(t).first == part.begin(r)) on_boundary = true;
    EXPECT_TRUE(on_boundary) << "cut " << r;
  }
}

TEST(Partition, SubdomainsAreSpatiallyConnectedRegions) {
  // Partition locality: each rank's cells form one compact 2D region whose
  // bounding box area stays within a small factor of its cell count.
  const hilbert::Ordering ord({64, 64}, hilbert::CurveKind::Hilbert, 8);
  const auto part = partition_by_tiles(ord, 8);
  for (int r = 0; r < part.num_parts(); ++r) {
    idx_t rmin = 64, rmax = 0, cmin = 64, cmax = 0;
    for (idx_t i = part.begin(r); i < part.end(r); ++i) {
      const Cell c = ord.cell(i);
      rmin = std::min(rmin, c.row);
      rmax = std::max(rmax, c.row);
      cmin = std::min(cmin, c.col);
      cmax = std::max(cmax, c.col);
    }
    const double bbox = static_cast<double>(rmax - rmin + 1) *
                        static_cast<double>(cmax - cmin + 1);
    EXPECT_LT(bbox, 4.0 * static_cast<double>(part.size(r))) << "rank " << r;
  }
}

TEST(Partition, ReasonableLoadBalance) {
  const hilbert::Ordering ord({128, 96}, hilbert::CurveKind::Hilbert, 8);
  for (const int ranks : {2, 4, 8, 16}) {
    const auto part = partition_by_tiles(ord, ranks);
    EXPECT_LT(part.imbalance(), 1.5) << ranks << " ranks";
  }
}

TEST(Partition, MoreRanksThanTilesFallsBackToCellCuts) {
  const hilbert::Ordering ord({8, 8}, hilbert::CurveKind::Hilbert, 8);
  ASSERT_EQ(ord.num_tiles(), 1);
  const auto part = partition_by_tiles(ord, 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(part.size(r), 16);
}

TEST(Partition, SingleRankOwnsEverything) {
  const hilbert::Ordering ord({16, 16}, hilbert::CurveKind::Hilbert, 4);
  const auto part = partition_by_tiles(ord, 1);
  EXPECT_EQ(part.size(0), ord.size());
  EXPECT_DOUBLE_EQ(part.imbalance(), 1.0);
}

TEST(Partition, RowMajorOrderingPartitionsByRows) {
  const hilbert::Ordering ord({12, 10}, hilbert::CurveKind::RowMajor);
  const auto part = partition_by_tiles(ord, 3);
  // Row-major tiles are rows; cuts land on row starts.
  for (int r = 1; r < 3; ++r) EXPECT_EQ(part.begin(r) % 10, 0);
}

TEST(Partition, WeightedPartitionBalancesWork) {
  // Projection matrices have nonuniform nnz per tile (edge tiles see
  // shorter chords); weighting by nnz must not be worse than cell-count
  // partitioning, measured in work imbalance.
  const auto g = geometry::make_geometry(24, 32);
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const auto a = geometry::build_projection_matrix(g, sino, tomo);
  for (const int ranks : {2, 4, 8}) {
    const auto by_cells = partition_by_tiles(sino, ranks);
    const auto by_nnz =
        partition_by_weights(sino, tile_nnz_weights(sino, a), ranks);
    EXPECT_EQ(by_nnz.total(), sino.size());
    EXPECT_LE(weighted_imbalance(by_nnz, a),
              weighted_imbalance(by_cells, a) * 1.05)
        << ranks << " ranks";
  }
}

TEST(Partition, WeightedPartitionCoversDomain) {
  const hilbert::Ordering ord({32, 32}, hilbert::CurveKind::Hilbert, 8);
  std::vector<double> weights(static_cast<std::size_t>(ord.num_tiles()));
  for (std::size_t t = 0; t < weights.size(); ++t)
    weights[t] = static_cast<double>(t + 1);  // skewed
  const auto part = partition_by_weights(ord, weights, 4);
  idx_t covered = 0;
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(part.begin(r), covered);
    covered += part.size(r);
  }
  EXPECT_EQ(covered, ord.size());
  // Skewed weights: the last rank (heaviest tiles) gets fewer cells.
  EXPECT_LT(part.size(3), part.size(0));
}

TEST(Partition, WeightedHandlesDegenerateWeights) {
  const hilbert::Ordering ord({16, 16}, hilbert::CurveKind::Hilbert, 4);
  const std::vector<double> zeros(static_cast<std::size_t>(ord.num_tiles()),
                                  0.0);
  const auto part = partition_by_weights(ord, zeros, 4);
  EXPECT_EQ(part.total(), ord.size());
  for (int r = 0; r < 4; ++r) EXPECT_GT(part.size(r), 0);
}

TEST(Partition, WeightedRejectsBadInput) {
  const hilbert::Ordering ord({16, 16}, hilbert::CurveKind::Hilbert, 4);
  const std::vector<double> wrong(3, 1.0);
  EXPECT_THROW(partition_by_weights(ord, wrong, 2), InvariantError);
  std::vector<double> negative(static_cast<std::size_t>(ord.num_tiles()),
                               1.0);
  negative[0] = -1.0;
  EXPECT_THROW(partition_by_weights(ord, negative, 2), InvariantError);
}

TEST(Partition, FinerTilesImproveBalance) {
  // The paper: "load balance ... can be improved by finer tile granularity".
  const Extent2D ext{96, 96};
  const hilbert::Ordering coarse(ext, hilbert::CurveKind::Hilbert, 32);
  const hilbert::Ordering fine(ext, hilbert::CurveKind::Hilbert, 8);
  const auto part_coarse = partition_by_tiles(coarse, 5);
  const auto part_fine = partition_by_tiles(fine, 5);
  EXPECT_LE(part_fine.imbalance(), part_coarse.imbalance() + 1e-12);
}

}  // namespace
}  // namespace memxct::dist
