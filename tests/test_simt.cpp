// Tests for the SIMT memory-access model and kernel analyses.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "geometry/projector.hpp"
#include "hilbert/ordering.hpp"
#include "simt/kernel_analysis.hpp"
#include "sparse/buffered.hpp"
#include "test_util.hpp"

namespace memxct::simt {
namespace {

TEST(WarpModel, FullyCoalescedIsOneTransaction) {
  // 32 lanes x 4 B consecutive = one 128 B transaction.
  std::vector<std::uint64_t> addr;
  for (int lane = 0; lane < 32; ++lane) addr.push_back(0x1000 + 4 * lane);
  EXPECT_EQ(warp_transactions(addr), 1);
}

TEST(WarpModel, MisalignedCoalescedIsTwoTransactions) {
  std::vector<std::uint64_t> addr;
  for (int lane = 0; lane < 32; ++lane) addr.push_back(0x1040 + 4 * lane);
  EXPECT_EQ(warp_transactions(addr), 2);  // straddles a 128 B boundary
}

TEST(WarpModel, FullyScatteredIsOnePerLane) {
  std::vector<std::uint64_t> addr;
  for (int lane = 0; lane < 32; ++lane)
    addr.push_back(0x1000 + 4096ull * lane);
  EXPECT_EQ(warp_transactions(addr), 32);
}

TEST(WarpModel, SameAddressBroadcasts) {
  const std::vector<std::uint64_t> addr(32, 0x2000);
  EXPECT_EQ(warp_transactions(addr), 1);
  EXPECT_EQ(warp_transactions({}), 0);
}

TEST(WarpModel, StridedAccessCostsStride) {
  // Stride of 32 floats (128 B): every lane in its own transaction.
  std::vector<std::uint64_t> addr;
  for (int lane = 0; lane < 32; ++lane) addr.push_back(128ull * lane);
  EXPECT_EQ(warp_transactions(addr), 32);
}

TEST(BankConflicts, ConsecutiveWordsAreConflictFree) {
  std::vector<idx_t> words;
  for (idx_t lane = 0; lane < 32; ++lane) words.push_back(lane);
  EXPECT_EQ(bank_conflict_degree(words), 1);
}

TEST(BankConflicts, SameWordBroadcastsConflictFree) {
  const std::vector<idx_t> words(32, 7);
  EXPECT_EQ(bank_conflict_degree(words), 1);
}

TEST(BankConflicts, PowerOfTwoStrideConflicts) {
  // Stride 32: all lanes hit bank 0 with distinct words = 32-way conflict.
  std::vector<idx_t> words;
  for (idx_t lane = 0; lane < 32; ++lane) words.push_back(32 * lane);
  EXPECT_EQ(bank_conflict_degree(words), 32);
  // Stride 2: two lanes per bank.
  words.clear();
  for (idx_t lane = 0; lane < 32; ++lane) words.push_back(2 * lane);
  EXPECT_EQ(bank_conflict_degree(words), 2);
}

TEST(EllAnalysis, ColumnMajorStreamsAreCoalesced) {
  const auto a = testutil::banded_csr(512, 512, 16, 61);
  const auto ell = sparse::to_ell_block(a, 64);
  const auto col = analyze_ell_spmv(ell, EllLaneOrder::ColumnMajor);
  const auto row = analyze_ell_spmv(ell, EllLaneOrder::RowMajor);
  ASSERT_GT(col.warp_steps, 0);
  // Column-major: one ind + one val transaction per full warp step.
  EXPECT_LT(col.stream_per_step(), 1.2);
  // Row-major lane order strides by the padded width: an order of
  // magnitude more transactions.
  EXPECT_GT(row.stream_per_step(), 5.0 * col.stream_per_step());
  // The gather cost is layout-independent (same logical elements).
  EXPECT_EQ(col.warp_steps, row.warp_steps);
}

TEST(EllAnalysis, SamplingBoundsWork) {
  const auto a = testutil::banded_csr(1024, 512, 8, 63);
  const auto ell = sparse::to_ell_block(a, 64);
  const auto full = analyze_ell_spmv(ell, EllLaneOrder::ColumnMajor);
  const auto sampled =
      analyze_ell_spmv(ell, EllLaneOrder::ColumnMajor, {}, 4);
  EXPECT_LT(sampled.warp_steps, full.warp_steps);
  EXPECT_NEAR(sampled.stream_per_step(), full.stream_per_step(), 0.3);
}

TEST(BufferedAnalysis, BandedMatrixStagesCoalesced) {
  // A Hilbert-like banded matrix stages near-contiguous map entries:
  // staging should approach 1 transaction per warp step (plus boundary
  // effects), and bank conflicts should be rare.
  const auto a = testutil::banded_csr(512, 512, 16, 65);
  const auto bm = sparse::build_buffered(a, {64, 1024});
  const auto report = analyze_buffered_spmv(bm);
  ASSERT_GT(report.staging_warp_steps, 0);
  EXPECT_LT(report.staging_per_step(), 2.0);
  ASSERT_GT(report.compute_warp_steps, 0);
  EXPECT_GE(report.mean_conflict_degree, 1.0);
  EXPECT_LE(report.mean_conflict_degree, report.max_conflict_degree);
}

TEST(BufferedAnalysis, ScatteredMatrixStagesWorse) {
  const auto banded = testutil::banded_csr(256, 4096, 16, 67);
  const auto random = testutil::random_csr(256, 4096, 0.008, 67);
  const auto bm_banded = sparse::build_buffered(banded, {64, 1024});
  const auto bm_random = sparse::build_buffered(random, {64, 1024});
  const auto r_banded = analyze_buffered_spmv(bm_banded);
  const auto r_random = analyze_buffered_spmv(bm_random);
  // Random columns scatter the staging gather across the x vector (worse
  // per-step coalescing; the map is sorted either way, so the gap is
  // moderate) and enlarge the footprint (more staging steps for
  // comparable nnz).
  EXPECT_GT(r_random.staging_per_step(), 1.2 * r_banded.staging_per_step());
  EXPECT_GT(static_cast<double>(bm_random.total_staged()),
            1.5 * static_cast<double>(bm_banded.total_staged()));
}

TEST(BufferedAnalysis, ReportsMatchGoldens) {
  // Report fields recorded from the row-run buffered layout before the
  // in-stage sliced layout replaced it, at bench_gpu_coalescing's 48 KB
  // shared-memory configuration and a smaller one: the analysis walks each
  // row's run through BufferedMatrix::row_run, so no count may move.
  const struct {
    hilbert::CurveKind ordering;
    sparse::BufferConfig config;
    std::int64_t staging_warp_steps, staging_transactions,
        compute_warp_steps, bank_conflict_steps;
    std::uint64_t mean_conflict_bits;
    double max_conflict_degree;
  } goldens[] = {
      {hilbert::CurveKind::RowMajor, {512, 12288}, 1476, 2729, 17748, 15089, 0x401f93a54d066782ull, 32},
      {hilbert::CurveKind::RowMajor, {64, 1024}, 3876, 7619, 7960, 5949, 0x400ec65e2ab5a4ecull, 16},
      {hilbert::CurveKind::Hilbert, {512, 12288}, 789, 1503, 16276, 14894, 0x40032b795ccc9943ull, 6},
      {hilbert::CurveKind::Hilbert, {64, 1024}, 743, 1714, 5465, 4971, 0x4003069add61f32aull, 5},
  };
  for (const auto& golden : goldens) {
    const auto g = geometry::make_geometry(96, 64);
    const hilbert::Ordering sino(g.sinogram_extent(), golden.ordering, 4);
    const hilbert::Ordering tomo(g.tomogram_extent(), golden.ordering, 4);
    const auto bm = sparse::build_buffered(
        geometry::build_projection_matrix(g, sino, tomo), golden.config);
    const auto r = analyze_buffered_spmv(bm, {}, 32);
    SCOPED_TRACE(std::string(hilbert::to_string(golden.ordering)) +
                 " partsize=" +
                 std::to_string(golden.config.partsize));
    EXPECT_EQ(r.staging_warp_steps, golden.staging_warp_steps);
    EXPECT_EQ(r.staging_transactions, golden.staging_transactions);
    EXPECT_EQ(r.compute_warp_steps, golden.compute_warp_steps);
    EXPECT_EQ(r.bank_conflict_steps, golden.bank_conflict_steps);
    std::uint64_t mean_bits = 0;
    std::memcpy(&mean_bits, &r.mean_conflict_degree, sizeof(mean_bits));
    EXPECT_EQ(mean_bits, golden.mean_conflict_bits);
    EXPECT_EQ(r.max_conflict_degree, golden.max_conflict_degree);
  }
}

}  // namespace
}  // namespace memxct::simt
