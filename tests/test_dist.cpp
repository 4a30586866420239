// Tests for the paper's distributed A = R·C·A_p apply — the Reduce exchange
// of shard::ShardedOperator over tile-snapped partitions — against the
// serial matrix, plus the CompXCT allreduce baseline.
#include <gtest/gtest.h>

#include <map>

#include "dist/dist_compxct.hpp"
#include "geometry/projector.hpp"
#include "shard/sharded_operator.hpp"
#include "solve/cgls.hpp"
#include "solve/sirt.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"
#include "test_util.hpp"

namespace memxct::dist {
namespace {

using shard::ShardedOperator;

/// The paper's configuration of the partitioned operator: Reduce exchange,
/// baseline CSR local kernels, one exchange per apply.
const ShardedOperator::Options kReduce = [] {
  ShardedOperator::Options opt;
  opt.kernel = shard::LocalKernel::BaselineCsr;
  opt.pipeline_tiles = 1;
  opt.exchange = shard::Exchange::Reduce;
  return opt;
}();

struct DistSetup {
  sparse::CsrMatrix a;
  DomainPartition sino;
  DomainPartition tomo;
};

DistSetup make_setup(int ranks) {
  const auto g = geometry::make_geometry(20, 24);
  const hilbert::Ordering sino_ord(g.sinogram_extent(),
                                   hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo_ord(g.tomogram_extent(),
                                   hilbert::CurveKind::Hilbert, 4);
  auto a = geometry::build_projection_matrix(g, sino_ord, tomo_ord);
  auto sino = partition_by_tiles(sino_ord, ranks);
  auto tomo = partition_by_tiles(tomo_ord, ranks);
  return {std::move(a), std::move(sino), std::move(tomo)};
}

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, ForwardMatchesSerial) {
  const auto setup = make_setup(GetParam());
  const ShardedOperator op(setup.a, setup.sino, setup.tomo, kReduce);
  const auto x = testutil::random_vector(setup.a.num_cols, 71);
  AlignedVector<real> y_dist(static_cast<std::size_t>(setup.a.num_rows));
  AlignedVector<real> y_serial(static_cast<std::size_t>(setup.a.num_rows));
  op.apply(x, y_dist);
  sparse::spmv_reference(setup.a, x, y_serial);
  EXPECT_LT(testutil::rel_error(y_dist, y_serial), 1e-5);
}

TEST_P(RankSweep, TransposeMatchesSerial) {
  const auto setup = make_setup(GetParam());
  const ShardedOperator op(setup.a, setup.sino, setup.tomo, kReduce);
  const auto at = sparse::transpose(setup.a);
  const auto y = testutil::random_vector(setup.a.num_rows, 72);
  AlignedVector<real> x_dist(static_cast<std::size_t>(setup.a.num_cols));
  AlignedVector<real> x_serial(static_cast<std::size_t>(setup.a.num_cols));
  op.apply_transpose(y, x_dist);
  sparse::spmv_reference(at, y, x_serial);
  EXPECT_LT(testutil::rel_error(x_dist, x_serial), 1e-5);
}

TEST_P(RankSweep, KernelTimesAreRecorded) {
  const auto setup = make_setup(GetParam());
  const ShardedOperator op(setup.a, setup.sino, setup.tomo, kReduce);
  const auto x = testutil::random_vector(setup.a.num_cols, 73);
  AlignedVector<real> y(static_cast<std::size_t>(setup.a.num_rows));
  op.apply(x, y);
  op.apply(x, y);
  const auto& stats = op.stats();
  EXPECT_EQ(stats.applies, 2);
  EXPECT_GT(stats.compute_seconds, 0.0);
  EXPECT_GE(stats.compute_sum_seconds, stats.compute_seconds);
  EXPECT_GE(stats.reduce_seconds, 0.0);
  if (GetParam() > 1) {
    EXPECT_GT(stats.comm_modeled_seconds, 0.0);
  }
}

TEST_P(RankSweep, CommunicationMatchesGoldens) {
  // nnz(C) and the forward traffic-matrix row sums (elements each rank
  // sends, self included) for the tile-snapped partition, recorded from
  // the standalone distributed operator this mode replaced. The paper's
  // communication numbers must not move.
  struct Golden {
    std::int64_t partial_rows;
    std::vector<std::int64_t> row_sums;
  };
  const std::map<int, Golden> goldens = {
      {1, {480, {480}}},
      {2, {784, {392, 392}}},
      {3, {986, {322, 342, 322}}},
      {4, {1210, {303, 302, 302, 303}}},
      {7, {1664, {206, 241, 251, 268, 251, 241, 206}}},
      {16,
       {2419,
        {121, 138, 202, 153, 150, 140, 155, 150, 150, 138, 171, 150, 153,
         153, 174, 121}}},
  };
  const int p = GetParam();
  const Golden& golden = goldens.at(p);
  const auto setup = make_setup(p);
  const ShardedOperator op(setup.a, setup.sino, setup.tomo, kReduce);
  EXPECT_EQ(op.total_partial_rows(), golden.partial_rows);
  const auto x = testutil::random_vector(setup.a.num_cols, 74);
  AlignedVector<real> y(static_cast<std::size_t>(setup.a.num_rows));
  op.apply(x, y);
  const auto& matrix = op.comm().traffic_matrix();
  for (int src = 0; src < p; ++src) {
    std::int64_t sent = 0;
    for (int dst = 0; dst < p; ++dst)
      sent += matrix[static_cast<std::size_t>(src * p + dst)];
    EXPECT_EQ(sent, golden.row_sums[static_cast<std::size_t>(src)])
        << "rank " << src;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep, ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(DistOperator, BufferedLocalKernelMatchesBaseline) {
  // The paper's full per-node configuration: Listing 3 kernels on each
  // rank's local blocks must agree with the baseline CSR path.
  const auto setup = make_setup(5);
  ShardedOperator::Options buffered_opt = kReduce;
  buffered_opt.kernel = shard::LocalKernel::Buffered;
  buffered_opt.buffer = {32, 256};
  const ShardedOperator base(setup.a, setup.sino, setup.tomo, kReduce);
  const ShardedOperator buffered(setup.a, setup.sino, setup.tomo,
                                 buffered_opt);
  const auto x = testutil::random_vector(setup.a.num_cols, 91);
  const auto y = testutil::random_vector(setup.a.num_rows, 92);
  AlignedVector<real> y1(static_cast<std::size_t>(setup.a.num_rows));
  AlignedVector<real> y2(static_cast<std::size_t>(setup.a.num_rows));
  base.apply(x, y1);
  buffered.apply(x, y2);
  EXPECT_LT(testutil::rel_error(y2, y1), 1e-5);
  AlignedVector<real> x1(static_cast<std::size_t>(setup.a.num_cols));
  AlignedVector<real> x2(static_cast<std::size_t>(setup.a.num_cols));
  base.apply_transpose(y, x1);
  buffered.apply_transpose(y, x2);
  EXPECT_LT(testutil::rel_error(x2, x1), 1e-5);
}

TEST(DistOperator, PartialRowsGrowWithRanks) {
  // Table 1: nnz(C) = total partial rows grows ~ sqrt(P); must be
  // monotone in P and exceed the serial row count for P > 1.
  const auto s1 = make_setup(1);
  const auto s4 = make_setup(4);
  const auto s16 = make_setup(16);
  const ShardedOperator op1(s1.a, s1.sino, s1.tomo, kReduce);
  const ShardedOperator op4(s4.a, s4.sino, s4.tomo, kReduce);
  const ShardedOperator op16(s16.a, s16.sino, s16.tomo, kReduce);
  EXPECT_LE(op1.total_partial_rows(),
            static_cast<std::int64_t>(s1.a.num_rows));
  EXPECT_GT(op4.total_partial_rows(), op1.total_partial_rows());
  EXPECT_GT(op16.total_partial_rows(), op4.total_partial_rows());
}

TEST(DistOperator, PerRankMemoryShrinksWithRanks) {
  // The memory-scaling headline: per-rank footprint decreases with P.
  const auto s1 = make_setup(1);
  const auto s8 = make_setup(8);
  const ShardedOperator op1(s1.a, s1.sino, s1.tomo, kReduce);
  const ShardedOperator op8(s8.a, s8.sino, s8.tomo, kReduce);
  std::int64_t max8 = 0;
  for (int r = 0; r < 8; ++r) max8 = std::max(max8, op8.rank_bytes(r));
  EXPECT_LT(max8, op1.rank_bytes(0));
}

TEST(DistOperator, TrafficMatrixConservation) {
  // Forward exchange: total sent elements == total partial rows.
  const auto setup = make_setup(4);
  const ShardedOperator op(setup.a, setup.sino, setup.tomo, kReduce);
  const auto x = testutil::random_vector(setup.a.num_cols, 74);
  AlignedVector<real> y(static_cast<std::size_t>(setup.a.num_rows));
  op.apply(x, y);
  std::int64_t total = 0;
  for (const auto v : op.comm().traffic_matrix()) total += v;
  EXPECT_EQ(total, op.total_partial_rows());
}

TEST(DistOperator, SolverRunsUnchangedOnDistributedOperator) {
  // Plug-and-play: CGLS over the distributed operator equals CGLS over the
  // serial matrix.
  const auto setup = make_setup(6);
  const ShardedOperator dist_op(setup.a, setup.sino, setup.tomo, kReduce);
  class SerialOp final : public solve::LinearOperator {
   public:
    explicit SerialOp(const sparse::CsrMatrix& a)
        : a_(a), at_(sparse::transpose(a)) {}
    idx_t num_rows() const override { return a_.num_rows; }
    idx_t num_cols() const override { return a_.num_cols; }
    void apply(std::span<const real> x, std::span<real> y) const override {
      sparse::spmv_csr(a_, x, y);
    }
    void apply_transpose(std::span<const real> y,
                         std::span<real> x) const override {
      sparse::spmv_csr(at_, y, x);
    }

   private:
    const sparse::CsrMatrix& a_;
    sparse::CsrMatrix at_;
  } serial_op(setup.a);

  const auto y = testutil::random_vector(setup.a.num_rows, 75);
  const auto r_dist = solve::cgls(dist_op, y, {.max_iterations = 8});
  const auto r_serial = solve::cgls(serial_op, y, {.max_iterations = 8});
  // CG amplifies float summation-order differences between the distributed
  // reduction and the serial kernel; a few percent drift after 8 iterations
  // is the expected envelope, not an algorithmic divergence.
  EXPECT_LT(testutil::rel_error(r_dist.x, r_serial.x), 2e-2);
}

class CompXctRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(CompXctRankSweep, DistributedCompXctMatchesSerialMatrix) {
  // Trace's parallelization (ray blocks + replicas + ring allreduce) must
  // compute the same forward/backprojection as the memoized serial matrix.
  const auto g = geometry::make_geometry(14, 16);
  const auto a = geometry::build_projection_matrix_natural(g);
  const auto at = sparse::transpose(a);
  const DistCompXctOperator op(g, GetParam());
  const auto x = testutil::random_vector(a.num_cols, 95);
  const auto y = testutil::random_vector(a.num_rows, 96);

  AlignedVector<real> y_dist(static_cast<std::size_t>(a.num_rows));
  AlignedVector<real> y_ref(static_cast<std::size_t>(a.num_rows));
  op.apply(x, y_dist);
  sparse::spmv_reference(a, x, y_ref);
  EXPECT_LT(testutil::rel_error(y_dist, y_ref), 1e-5);

  AlignedVector<real> x_dist(static_cast<std::size_t>(a.num_cols));
  AlignedVector<real> x_ref(static_cast<std::size_t>(a.num_cols));
  op.apply_transpose(y, x_dist);
  sparse::spmv_reference(at, y, x_ref);
  EXPECT_LT(testutil::rel_error(x_dist, x_ref), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Ranks, CompXctRankSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(DistCompXct, AllreduceBytesIndependentOfRanks) {
  // Table 1's contrast: Trace's per-rank allreduce traffic stays O(N²)
  // regardless of P (it is the whole duplicated domain), while MemXCT's
  // per-rank traffic shrinks with P.
  const auto g = geometry::make_geometry(12, 16);
  const auto y = testutil::random_vector(
      static_cast<idx_t>(g.sinogram_extent().size()), 97);
  AlignedVector<real> x(static_cast<std::size_t>(g.tomogram_extent().size()));
  std::int64_t bytes4 = 0, bytes8 = 0;
  {
    const DistCompXctOperator op(g, 4);
    op.apply_transpose(y, x);
    bytes4 = op.rank_bytes_sent(0);
  }
  {
    const DistCompXctOperator op(g, 8);
    op.apply_transpose(y, x);
    bytes8 = op.rank_bytes_sent(0);
  }
  const auto domain_bytes =
      static_cast<std::int64_t>(g.tomogram_extent().size()) * 4;
  // Ring allreduce: 2·(P-1)/P·N²·4 B per rank — within 2x of 2·N²·4 for
  // both P, i.e. NOT shrinking with P.
  EXPECT_GT(bytes4, domain_bytes);
  EXPECT_GT(bytes8, domain_bytes);
  EXPECT_LT(std::abs(bytes8 - bytes4), domain_bytes / 2);
  EXPECT_GT(DistCompXctOperator(g, 4).replica_bytes(), 0);
}

TEST(DistCompXct, SolverPlugAndPlay) {
  // SIRT through the distributed compute-centric operator equals SIRT
  // through the serial matrix (end-to-end, including the allreduce).
  const auto g = geometry::make_geometry(10, 12);
  const auto a = geometry::build_projection_matrix_natural(g);

  class SerialOp final : public solve::LinearOperator {
   public:
    explicit SerialOp(const sparse::CsrMatrix& m)
        : a_(m), at_(sparse::transpose(m)) {}
    idx_t num_rows() const override { return a_.num_rows; }
    idx_t num_cols() const override { return a_.num_cols; }
    void apply(std::span<const real> x, std::span<real> y) const override {
      sparse::spmv_csr(a_, x, y);
    }
    void apply_transpose(std::span<const real> y,
                         std::span<real> x) const override {
      sparse::spmv_csr(at_, y, x);
    }

   private:
    const sparse::CsrMatrix& a_;
    sparse::CsrMatrix at_;
  } serial(a);

  const DistCompXctOperator dist(g, 3);
  const auto y = testutil::random_vector(a.num_rows, 98);
  const auto r_dist = solve::sirt(dist, y, {.max_iterations = 6});
  const auto r_serial = solve::sirt(serial, y, {.max_iterations = 6});
  EXPECT_LT(testutil::rel_error(r_dist.x, r_serial.x), 1e-3);
}

TEST(DistOperator, RejectsMismatchedPartitions) {
  const auto setup = make_setup(2);
  const DomainPartition bad(3, {0, 10, 20, setup.a.num_rows});
  EXPECT_THROW(ShardedOperator(setup.a, bad, setup.tomo, kReduce),
               InvariantError);
}

}  // namespace
}  // namespace memxct::dist
