// Tests for the multi-stage input-buffered SpMV (Listing 3, Section 3.3).
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "geometry/projector.hpp"
#include "hilbert/ordering.hpp"
#include "shard/sharded_operator.hpp"
#include "sparse/buffered.hpp"
#include "sparse/buffered_kernel.hpp"
#include "sparse/plan.hpp"
#include "sparse/subset.hpp"
#include "sparse/transpose.hpp"
#include "buffered_reference.hpp"
#include "test_util.hpp"

namespace memxct::sparse {
namespace {

struct BufferedCase {
  idx_t rows, cols;
  double density;
  BufferConfig config;
};

class BufferedSweep : public ::testing::TestWithParam<BufferedCase> {};

TEST_P(BufferedSweep, MatchesReference) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 41);
  const BufferedMatrix bm = build_buffered(a, param.config);
  const auto x = testutil::random_vector(param.cols, 42);
  AlignedVector<real> expected(static_cast<std::size_t>(param.rows));
  AlignedVector<real> actual(static_cast<std::size_t>(param.rows), -3.0f);
  spmv_reference(a, x, expected);
  spmv_buffered(bm, x, actual);
  EXPECT_LT(testutil::rel_error(actual, expected), 1e-5);
}

TEST_P(BufferedSweep, StructureIsValid) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 43);
  const BufferedMatrix bm = build_buffered(a, param.config);
  EXPECT_NO_THROW(bm.validate());
  EXPECT_EQ(bm.nnz(), a.nnz());
  // Every stage respects the 16-bit buffer bound.
  for (idx_t s = 0; s < bm.num_stages(); ++s)
    EXPECT_LE(bm.stagenz[static_cast<std::size_t>(s)], bm.config.buffsize);
}

TEST_P(BufferedSweep, MapCoversExactlyPartitionFootprints) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 45);
  const BufferedMatrix bm = build_buffered(a, param.config);
  // For each partition, the union of its stage maps must equal the set of
  // distinct columns its rows touch.
  for (idx_t p = 0; p < bm.num_partitions(); ++p) {
    std::set<idx_t> expected_cols;
    const idx_t r0 = p * bm.config.partsize;
    const idx_t r1 = std::min<idx_t>(r0 + bm.config.partsize, a.num_rows);
    for (idx_t r = r0; r < r1; ++r)
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k)
        expected_cols.insert(a.ind[k]);
    std::set<idx_t> staged_cols;
    for (idx_t s = bm.partdispl[static_cast<std::size_t>(p)];
         s < bm.partdispl[static_cast<std::size_t>(p) + 1]; ++s)
      for (nnz_t m = bm.stagedispl[static_cast<std::size_t>(s)];
           m < bm.stagedispl[static_cast<std::size_t>(s) + 1]; ++m)
        staged_cols.insert(bm.map[static_cast<std::size_t>(m)]);
    EXPECT_EQ(staged_cols, expected_cols) << "partition " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BufferedSweep,
    ::testing::Values(
        BufferedCase{1, 1, 1.0, {1, 1}},
        BufferedCase{16, 16, 0.5, {4, 8}},
        BufferedCase{100, 80, 0.1, {128, 4096}},
        BufferedCase{100, 80, 0.1, {8, 16}},   // many small stages
        BufferedCase{63, 200, 0.2, {16, 32}},  // footprint > buffer
        BufferedCase{257, 129, 0.05, {32, 64}},
        BufferedCase{512, 300, 0.02, {128, 256}},
        BufferedCase{40, 40, 0.0, {16, 64}},   // empty matrix
        BufferedCase{10, 70000, 0.9, {4, 65536}}));  // max buffsize bound

TEST(Buffered, MultipleStagesWhenFootprintExceedsBuffer) {
  // A partition touching 100 distinct columns with a 32-entry buffer needs
  // ceil(100/32) = 4 stages.
  CsrBuilder b(2, 100);
  std::vector<std::pair<idx_t, real>> row;
  for (idx_t c = 0; c < 100; ++c) row.emplace_back(c, 1.0f);
  b.set_row(0, row);
  b.set_row(1, row);
  const CsrMatrix a = b.assemble();
  const BufferedMatrix bm = build_buffered(a, {2, 32});
  EXPECT_EQ(bm.num_partitions(), 1);
  EXPECT_EQ(bm.num_stages(), 4);
  EXPECT_EQ(bm.total_staged(), 100);  // distinct columns staged once
}

TEST(Buffered, SharedFootprintStagedOnce) {
  // Rows of one partition sharing columns stage them once — the data-reuse
  // benefit of Section 3.3.1. Two identical rows with 10 columns stage 10
  // words, not 20.
  CsrBuilder b(2, 50);
  std::vector<std::pair<idx_t, real>> row;
  for (idx_t c = 0; c < 10; ++c) row.emplace_back(c * 5, 2.0f);
  b.set_row(0, row);
  b.set_row(1, row);
  const BufferedMatrix bm = build_buffered(b.assemble(), {2, 64});
  EXPECT_EQ(bm.total_staged(), 10);
}

TEST(Buffered, SixteenBitIndexBound) {
  EXPECT_THROW(build_buffered(testutil::random_csr(4, 4, 1.0, 1), {4, 65537}),
               InvariantError);
  EXPECT_THROW(build_buffered(testutil::random_csr(4, 4, 1.0, 1), {0, 16}),
               InvariantError);
  EXPECT_THROW(build_buffered(testutil::random_csr(4, 4, 1.0, 1), {4, 0}),
               InvariantError);
}

TEST(Buffered, BandwidthAccountingUsesTwoByteIndices) {
  const CsrMatrix a = testutil::random_csr(64, 64, 0.2, 47);
  const BufferedMatrix bm = build_buffered(a, {16, 128});
  const auto work = buffered_work(bm);
  EXPECT_EQ(work.nnz, a.nnz());
  EXPECT_EQ(bm.nnz(), a.nnz());
  ASSERT_GE(bm.padded_nnz(), a.nnz());
  // 2 B index + 4 B value per STORED entry, charged to the real FMAs: pad
  // entries are streamed too, so B/FMA is 6 scaled by the padded fraction.
  const double padding = static_cast<double>(bm.padded_nnz()) /
                         static_cast<double>(a.nnz());
  EXPECT_DOUBLE_EQ(work.bytes_per_fma(), 6.0 * padding);
  EXPECT_GE(work.bytes_per_fma(), 6.0);
  EXPECT_EQ(work.staged_words, bm.total_staged());
  // Regular bytes = 6·padded_nnz + 8·staged (map read + gathered value).
  EXPECT_DOUBLE_EQ(work.regular_bytes(),
                   6.0 * static_cast<double>(bm.padded_nnz()) +
                       8.0 * static_cast<double>(bm.total_staged()));
}

TEST(Buffered, LastPartialPartitionHandled) {
  // num_rows not divisible by partsize: trailing rows must still be exact.
  const CsrMatrix a = testutil::random_csr(13, 30, 0.4, 49);
  const BufferedMatrix bm = build_buffered(a, {8, 16});
  const auto x = testutil::random_vector(30, 50);
  AlignedVector<real> expected(13), actual(13);
  spmv_reference(a, x, expected);
  spmv_buffered(bm, x, actual);
  EXPECT_LT(testutil::rel_error(actual, expected), 1e-5);
}

TEST(Buffered, HilbertLikeBandedMatrixFewStages) {
  // Banded (compact-footprint) matrices — what pseudo-Hilbert ordering
  // produces — need few stages per partition.
  const CsrMatrix a = testutil::banded_csr(512, 512, 16, 51);
  const BufferedMatrix bm = build_buffered(a, {64, 256});
  // Each 64-row partition touches ≲ 64+2*16 distinct columns < 256.
  EXPECT_EQ(bm.num_stages(), bm.num_partitions());
}

// ---- bitwise parity with the sort-and-search construction ----------------

/// Compares the sliced layout with the row-run reference: the staging
/// arrays byte for byte, each (stage, row) run entry by entry, and every
/// pad entry against slot 0, value +0.
void expect_layout_matches(const BufferedMatrix& got,
                           const testutil::RowRunBuffered& want,
                           const std::string& where) {
  ASSERT_NO_THROW(got.validate()) << where;
  EXPECT_EQ(got.num_rows, want.num_rows) << where;
  EXPECT_EQ(got.num_cols, want.num_cols) << where;
  EXPECT_TRUE(testutil::same_bytes(got.partdispl, want.partdispl))
      << "partdispl, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.stagedispl, want.stagedispl))
      << "stagedispl, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.stagenz, want.stagenz))
      << "stagenz, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.map, want.map)) << "map, " << where;
  ASSERT_EQ(got.num_stages(), want.num_stages()) << where;
  const idx_t partsize = got.config.partsize;
  nnz_t visited = 0;
  int mismatches = 0;
  for (idx_t s = 0; s < got.num_stages(); ++s)
    for (idx_t j = 0; j < partsize; ++j) {
      const auto cell = static_cast<std::size_t>(s) * partsize + j;
      const RowRun run = got.row_run(s, j);
      const nnz_t want_begin = want.displ[cell];
      ASSERT_EQ(run.len, want.displ[cell + 1] - want_begin)
          << "row length, stage " << s << " row " << j << ", " << where;
      const idx_t g = j / kSliceRows;
      const auto group =
          static_cast<std::size_t>(s) * got.num_groups() + g;
      const auto width = static_cast<idx_t>(
          (got.groupdispl[group + 1] - got.groupdispl[group]) /
          got.group_rows(g));
      for (idx_t e = 0; e < width; ++e, ++visited) {
        const auto at = static_cast<std::size_t>(run.at(e));
        const buf_idx_t want_ind =
            e < run.len ? want.ind[static_cast<std::size_t>(want_begin + e)]
                        : buf_idx_t{0};
        const real want_val =
            e < run.len ? want.val[static_cast<std::size_t>(want_begin + e)]
                        : real{0};
        if (got.ind[at] != want_ind ||
            std::memcmp(&got.val[at], &want_val, sizeof(real)) != 0)
          ++mismatches;
      }
    }
  EXPECT_EQ(mismatches, 0) << "entries differ, " << where;
  EXPECT_EQ(visited, got.padded_nnz()) << "unvisited entries, " << where;
  EXPECT_EQ(got.nnz(), static_cast<nnz_t>(want.ind.size())) << where;
}

/// Random matrix whose rows [empty_from, empty_to) have no entries, so whole
/// partitions can be empty.
CsrMatrix random_csr_with_empty_rows(idx_t rows, idx_t cols, double density,
                                     idx_t empty_from, idx_t empty_to,
                                     std::uint64_t seed) {
  Rng rng(seed);
  CsrBuilder b(rows, cols);
  std::vector<std::pair<idx_t, real>> entries;
  for (idx_t r = 0; r < rows; ++r) {
    entries.clear();
    if (r < empty_from || r >= empty_to)
      for (idx_t c = 0; c < cols; ++c)
        if (rng.uniform() < density)
          entries.emplace_back(c, static_cast<real>(rng.uniform(-2.0, 2.0)));
    b.set_row(r, entries);
  }
  return b.assemble();
}

/// Hilbert-ordered projection matrix (the operator's real layout).
CsrMatrix hilbert_projection_matrix(idx_t angles, idx_t channels) {
  const auto g = geometry::make_geometry(angles, channels);
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  return geometry::build_projection_matrix(g, sino, tomo);
}

TEST(BufferedBuild, MatchesSortAndSearchReferenceBitwise) {
  const CsrMatrix traced = hilbert_projection_matrix(48, 32);
  const struct {
    const char* name;
    CsrMatrix a;
  } matrices[] = {
      {"random", testutil::random_csr(300, 200, 0.05, 61)},
      // Rows 40..103 empty: whole partitions at partsize <= 32, a partial
      // empty one otherwise; 301 rows leave a last partial partition.
      {"random-empty-rows",
       random_csr_with_empty_rows(301, 150, 0.08, 40, 104, 62)},
      {"empty", testutil::random_csr(37, 20, 0.0, 63)},
      {"hilbert-forward", traced},
      {"hilbert-transpose", transpose(traced)},
  };
  const BufferConfig configs[] = {
      {128, 4096}, {64, 256}, {32, 64}, {16, 7}, {7, 3}, {1, 1}, {300, 65536},
  };
  const int saved = omp_get_max_threads();
  for (const auto& m : matrices)
    for (const auto& config : configs) {
      const auto want = testutil::build_buffered_sort_and_search(m.a, config);
      for (const int threads : {1, 3}) {
        omp_set_num_threads(threads);
        const std::string where =
            std::string(m.name) + " partsize=" +
            std::to_string(config.partsize) +
            " buffsize=" + std::to_string(config.buffsize) +
            " threads=" + std::to_string(threads);
        expect_layout_matches(build_buffered(m.a, config), want, where);
      }
    }
  omp_set_num_threads(saved);
}

/// Every array of two buffered matrices, byte for byte.
void expect_same_bytes(const BufferedMatrix& got, const BufferedMatrix& want,
                       const std::string& where) {
  EXPECT_EQ(got.storage, want.storage) << where;
  EXPECT_TRUE(testutil::same_bytes(got.groupdispl, want.groupdispl))
      << "groupdispl, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.rowlen, want.rowlen))
      << "rowlen, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.ind, want.ind)) << "ind, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.val, want.val)) << "val, " << where;
  EXPECT_TRUE(testutil::same_bytes(got.val16, want.val16))
      << "val16, " << where;
}

TEST(BufferedBuild, TransposeMatchesBuildOfCsrTransposeBitwise) {
  const CsrMatrix traced = hilbert_projection_matrix(48, 32);
  const struct {
    const char* name;
    CsrMatrix a;
  } matrices[] = {
      {"random", testutil::random_csr(300, 200, 0.05, 61)},
      // Rows 40..103 of A are empty, so whole forward partitions are empty
      // and those rays join no backward footprint; 301 rows and 150
      // columns leave a ragged last partition in both directions.
      {"random-empty-rows",
       random_csr_with_empty_rows(301, 150, 0.08, 40, 104, 62)},
      {"empty", testutil::random_csr(37, 20, 0.0, 63)},
      {"hilbert-forward", traced},
      {"hilbert-transpose", transpose(traced)},
  };
  const BufferConfig configs[] = {
      {128, 4096}, {64, 256}, {32, 64}, {16, 7}, {7, 3}, {1, 1}, {300, 65536},
  };
  const int saved = omp_get_max_threads();
  for (const auto& m : matrices) {
    const CsrMatrix at = transpose(m.a);
    for (const auto& config : configs) {
      const BufferedMatrix want = build_buffered(at, config);
      const auto want_runs =
          testutil::build_buffered_sort_and_search(at, config);
      for (const int threads : {1, 3}) {
        omp_set_num_threads(threads);
        const std::string where =
            std::string(m.name) + " partsize=" +
            std::to_string(config.partsize) +
            " buffsize=" + std::to_string(config.buffsize) +
            " threads=" + std::to_string(threads);
        const BufferedMatrix got =
            transpose_buffered(build_buffered(m.a, config));
        expect_layout_matches(got, want_runs, where);
        expect_same_bytes(got, want, where);
      }
    }
  }
  omp_set_num_threads(saved);
}

TEST(BufferedBuild, QuantizingTheTransposedLayoutMatchesTheOldOrder) {
  // The operator used to quantize build_buffered(transpose(A)); it now
  // quantizes transpose_buffered of the fp32 forward layout.
  const CsrMatrix a = hilbert_projection_matrix(48, 32);
  const CsrMatrix at = transpose(a);
  for (const ValueStorage storage : {ValueStorage::Bf16, ValueStorage::Fp16})
    for (const BufferConfig config :
         {BufferConfig{128, 4096}, BufferConfig{16, 7}}) {
      BufferedMatrix want = build_buffered(at, config);
      quantize_values(want, storage);
      BufferedMatrix got = transpose_buffered(build_buffered(a, config));
      quantize_values(got, storage);
      expect_same_bytes(got, want,
                        std::string(to_string(storage)) + " partsize=" +
                            std::to_string(config.partsize));
    }
}

TEST(BufferedBuild, TransposeRejectsReducedPrecisionInput) {
  BufferedMatrix fwd =
      build_buffered(testutil::random_csr(40, 30, 0.2, 64), {16, 8});
  quantize_values(fwd, ValueStorage::Bf16);
  EXPECT_THROW((void)transpose_buffered(fwd), InvariantError);
}

// ---- kernel parity with the row-order scalar kernel ---------------------

/// x values that stress the masked-lane argument: a finite random vector,
/// and one with ±0, ±inf, NaN and subnormals sprinkled through it (sparse
/// enough that most outputs stay finite and keep exposing rounding order).
/// Its NaN is the default NaN that inf − inf produces, so every NaN in a
/// sum has the same bits; `mixed_nan` swaps in the positive quiet NaN,
/// whose payload an addition with the default NaN may or may not keep.
std::vector<AlignedVector<real>> parity_inputs(idx_t n, std::uint64_t seed,
                                               bool mixed_nan = false) {
  std::vector<AlignedVector<real>> xs;
  xs.push_back(testutil::random_vector(n, seed));
  AlignedVector<real> special = testutil::random_vector(n, seed + 1);
  const real nan = std::numeric_limits<real>::quiet_NaN();
  const real specials[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<real>::infinity(),
                           -std::numeric_limits<real>::infinity(),
                           mixed_nan ? nan : -nan,
                           std::numeric_limits<real>::denorm_min(),
                           -3.0f * std::numeric_limits<real>::denorm_min(),
                           std::numeric_limits<real>::min() / 4.0f};
  Rng rng(seed + 2);
  for (auto& v : special)
    if (rng.uniform() < 0.03)
      v = specials[rng.uniform_int(sizeof(specials) / sizeof(specials[0]))];
  xs.push_back(std::move(special));
  return xs;
}

/// memcmp of two outputs (with `nan_as_equal`, any NaN matches any NaN);
/// on a mismatch the message names the first differing element and both
/// bit patterns.
::testing::AssertionResult bitwise_equal(std::span<const real> got,
                                         std::span<const real> want,
                                         bool nan_as_equal = false) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure() << "sizes " << got.size() << " vs "
                                         << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t g = 0, w = 0;
    std::memcpy(&g, &got[i], sizeof(g));
    std::memcpy(&w, &want[i], sizeof(w));
    const bool both_nan = std::isnan(got[i]) && std::isnan(want[i]);
    if (g != w && !(nan_as_equal && both_nan)) {
      std::ostringstream msg;
      msg << "element " << i << ": got " << got[i] << " (0x" << std::hex << g
          << "), want " << want[i] << " (0x" << w << ")";
      return ::testing::AssertionFailure() << msg.str();
    }
  }
  return ::testing::AssertionSuccess();
}

struct ParityMatrix {
  const char* name;
  CsrMatrix a;
  std::vector<BufferConfig> configs;  ///< Full applies sweep all of these.
  std::vector<BufferConfig> sampled;  ///< Subset and shard views: these.
};

std::vector<ParityMatrix> parity_matrices() {
  std::vector<BufferConfig> grid;
  for (const idx_t partsize : {1, 7, 16, 33, 128, 300})
    for (const idx_t buffsize : {1, 3, 64, 4096, 65536})
      grid.push_back({partsize, buffsize});
  // Every partsize and every buffsize once: the views add little per
  // config beyond the full applies, and cost far more to build.
  const std::vector<BufferConfig> sample = {
      {1, 3}, {7, 1}, {16, 65536}, {33, 64}, {128, 4096}, {300, 3}};
  const CsrMatrix traced = hilbert_projection_matrix(48, 32);
  std::vector<ParityMatrix> out;
  out.push_back(
      {"random", testutil::random_csr(300, 200, 0.05, 81), grid, sample});
  out.push_back({"hilbert-forward", traced, grid, sample});
  out.push_back({"hilbert-transpose", transpose(traced), grid, sample});
  // Rows 40..103 empty; 301 rows leave a ragged last partition.
  out.push_back({"random-empty-rows",
                 random_csr_with_empty_rows(301, 150, 0.08, 40, 104, 82), grid,
                 sample});
  // Six rows touch ~70000 distinct columns: at buffsize 65536 every
  // partition of more than one row fills its first stage to the last slot.
  const std::vector<BufferConfig> wide = {
      {1, 65536}, {4, 65536}, {7, 65536}, {16, 4096}};
  out.push_back(
      {"full-stage", testutil::random_csr(6, 70000, 0.9, 83), wide, wide});
  return out;
}

/// Sets 1–4 OpenMP threads in rotation for one config of a sweep (turn t
/// uses 1 + t % 4), restoring the previous count on exit: the sweep covers
/// every count, builds included, without paying for all four per config.
class RotatingThreads {
 public:
  explicit RotatingThreads(int turn)
      : threads_(1 + turn % 4), saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads_);
  }
  ~RotatingThreads() { omp_set_num_threads(saved_); }
  RotatingThreads(const RotatingThreads&) = delete;
  RotatingThreads& operator=(const RotatingThreads&) = delete;

  [[nodiscard]] std::string where(const char* matrix,
                                  const BufferConfig& config) const {
    return std::string(matrix) + " partsize=" +
           std::to_string(config.partsize) +
           " buffsize=" + std::to_string(config.buffsize) +
           " threads=" + std::to_string(threads_);
  }

 private:
  int threads_;
  int saved_;
};

TEST(BufferedParity, FullAppliesMatchRowOrderKernelBitwise) {
  int turn = 0;
  for (const auto& m : parity_matrices())
    for (const auto& config : m.configs) {
      const RotatingThreads threads(turn++);
      const std::string where = threads.where(m.name, config);
      const auto ref = testutil::build_buffered_sort_and_search(m.a, config);
      const BufferedMatrix bm = build_buffered(m.a, config);
      const auto plan = ApplyPlan::build(partition_nnz(bm), 3);
      Workspace ws(3, config.buffsize, config.partsize);
      AlignedVector<real> want(static_cast<std::size_t>(m.a.num_rows));
      AlignedVector<real> got(want.size());
      for (const auto& x : parity_inputs(m.a.num_cols, 84)) {
        testutil::spmv_row_order(ref, x, want);
        std::fill(got.begin(), got.end(), -7.0f);
        spmv_buffered(bm, x, got);
        EXPECT_TRUE(bitwise_equal(got, want)) << "dynamic, " << where;
        std::fill(got.begin(), got.end(), -7.0f);
        spmv_buffered_planned(bm, plan, ws, x, got);
        EXPECT_TRUE(bitwise_equal(got, want)) << "planned, " << where;
      }
      // Two NaN payloads in one sum: NaN exactly where the reference has
      // NaN, every other output bit for bit.
      const auto mixed = parity_inputs(m.a.num_cols, 84, true).back();
      testutil::spmv_row_order(ref, mixed, want);
      spmv_buffered_planned(bm, plan, ws, mixed, got);
      EXPECT_TRUE(bitwise_equal(got, want, true)) << "mixed NaN, " << where;
    }
}

TEST(BufferedParity, SubsetViewsMatchRowOrderKernelBitwise) {
  int turn = 0;
  for (const auto& m : parity_matrices()) {
    const CsrMatrix at = transpose(m.a);
    for (const auto& config : m.sampled) {
      const RotatingThreads threads(turn++);
      const std::string where = threads.where(m.name, config);
      const auto ref = testutil::build_buffered_sort_and_search(m.a, config);
      const auto ref_t = testutil::build_buffered_sort_and_search(at, config);
      const BufferedMatrix bm = build_buffered(m.a, config);
      const BufferedMatrix bt = build_buffered(at, config);
      const auto weights = partition_nnz(bm);
      Workspace ws(2, config.buffsize, config.partsize);
      const auto xs = parity_inputs(m.a.num_cols, 85);
      const auto ys = parity_inputs(m.a.num_rows, 86);
      for (const RowRange& range :
           make_subset_ranges(m.a.num_rows, 3, config.partsize)) {
        const std::string in_range = where + " rows [" +
                                     std::to_string(range.first) + ", " +
                                     std::to_string(range.last()) + ")";
        // Row range: the reference's rows [first, last).
        const idx_t p0 = range.first / config.partsize;
        const auto range_plan = ApplyPlan::build(
            std::span<const nnz_t>(weights).subspan(
                static_cast<std::size_t>(p0),
                static_cast<std::size_t>(
                    ceil_div(range.count, config.partsize))),
            2);
        // Column range of the transpose: the reference applied to y with
        // every out-of-range entry zeroed. A zero adds only ±0 products to
        // a sum that is never -0, so it leaves every bit as it was.
        const auto index = BufferedColRange::build(bt, range);
        const auto col_plan = ApplyPlan::build(index.part_nnz, 2);
        for (std::size_t v = 0; v < xs.size(); ++v) {
          AlignedVector<real> want(static_cast<std::size_t>(m.a.num_rows));
          testutil::spmv_row_order(ref, xs[v], want);
          const auto want_rows = std::span<const real>(want).subspan(
              static_cast<std::size_t>(range.first),
              static_cast<std::size_t>(range.count));
          AlignedVector<real> got(static_cast<std::size_t>(range.count));
          spmv_buffered_range(bm, range, xs[v], got);
          EXPECT_TRUE(bitwise_equal(got, want_rows))
              << "row range, " << in_range;
          std::fill(got.begin(), got.end(), -7.0f);
          spmv_buffered_range_planned(bm, range, range_plan, ws, xs[v], got);
          EXPECT_TRUE(bitwise_equal(got, want_rows))
              << "row range planned, " << in_range;

          const auto y = std::span<const real>(ys[v]).subspan(
              static_cast<std::size_t>(range.first),
              static_cast<std::size_t>(range.count));
          AlignedVector<real> masked(ys[v].size(), 0.0f);
          std::copy(y.begin(), y.end(), masked.begin() + range.first);
          AlignedVector<real> want_t(static_cast<std::size_t>(m.a.num_cols));
          testutil::spmv_row_order(ref_t, masked, want_t);
          AlignedVector<real> got_t(want_t.size(), -7.0f);
          spmv_buffered_colrange(bt, index, y, got_t);
          EXPECT_TRUE(bitwise_equal(got_t, want_t))
              << "col range, " << in_range;
          std::fill(got_t.begin(), got_t.end(), -7.0f);
          spmv_buffered_colrange_planned(bt, index, col_plan, ws, y, got_t);
          EXPECT_TRUE(bitwise_equal(got_t, want_t))
              << "col range planned, " << in_range;
        }
      }
    }
  }
}

TEST(BufferedParity, ShardLocalKernelMatchesRowOrderKernelBitwise) {
  // P alternates every four configs, so both shard counts meet 1–4 threads.
  int turn = 0;
  for (const auto& m : parity_matrices()) {
    const CsrMatrix at = transpose(m.a);
    const auto x = parity_inputs(m.a.num_cols, 87).back();
    const auto y = parity_inputs(m.a.num_rows, 88).back();
    for (const auto& config : m.sampled) {
      const int shards = 1 + (turn / 4) % 2;
      const RotatingThreads threads(turn++);
      const auto ref = testutil::build_buffered_sort_and_search(m.a, config);
      const auto ref_t = testutil::build_buffered_sort_and_search(at, config);
      AlignedVector<real> want(static_cast<std::size_t>(m.a.num_rows));
      AlignedVector<real> want_t(static_cast<std::size_t>(m.a.num_cols));
      testutil::spmv_row_order(ref, x, want);
      testutil::spmv_row_order(ref_t, y, want_t);
      shard::ShardedOperator::Options opt;
      opt.num_shards = shards;
      opt.kernel = shard::LocalKernel::Buffered;
      opt.buffer = config;
      const shard::ShardedOperator op(m.a, opt);
      const std::string where =
          threads.where(m.name, config) + " shards=" + std::to_string(shards);
      AlignedVector<real> got(want.size(), -7.0f);
      op.apply(x, got);
      EXPECT_TRUE(bitwise_equal(got, want)) << "forward, " << where;
      AlignedVector<real> got_t(want_t.size(), -7.0f);
      op.apply_transpose(y, got_t);
      EXPECT_TRUE(bitwise_equal(got_t, want_t)) << "transpose, " << where;
    }
  }
}

// ---- reduced precision: the same body over decoded 16-bit values --------

constexpr ValueStorage kReduced[] = {ValueStorage::Bf16, ValueStorage::Fp16};

TEST(BufferedParity, ReducedPrecisionFullAppliesMatchRowOrderKernelBitwise) {
  int turn = 0;
  for (const auto& m : parity_matrices())
    for (const auto& config : m.sampled)
      for (const ValueStorage storage : kReduced) {
        const RotatingThreads threads(turn++);
        const std::string where =
            threads.where(m.name, config) + " " + to_string(storage);
        const auto ref = testutil::build_buffered_sort_and_search(
            testutil::quantized(m.a, storage), config);
        const BufferedMatrix bm = testutil::build_stored(m.a, config, storage);
        const auto plan = ApplyPlan::build(partition_nnz(bm), 3);
        Workspace ws(3, config.buffsize, config.partsize);
        AlignedVector<real> want(static_cast<std::size_t>(m.a.num_rows));
        AlignedVector<real> got(want.size());
        for (const auto& x : parity_inputs(m.a.num_cols, 84)) {
          testutil::spmv_row_order(ref, x, want);
          std::fill(got.begin(), got.end(), -7.0f);
          spmv_buffered(bm, x, got);
          EXPECT_TRUE(bitwise_equal(got, want)) << "dynamic, " << where;
          std::fill(got.begin(), got.end(), -7.0f);
          spmv_buffered_planned(bm, plan, ws, x, got);
          EXPECT_TRUE(bitwise_equal(got, want)) << "planned, " << where;
        }
      }
}

TEST(BufferedParity, ReducedPrecisionSubsetViewsMatchRowOrderKernelBitwise) {
  // bf16 and fp16 alternate over the sampled configs.
  int turn = 0;
  for (const auto& m : parity_matrices()) {
    const CsrMatrix at = transpose(m.a);
    for (const auto& config : m.sampled) {
      const ValueStorage storage = kReduced[turn % 2];
      const RotatingThreads threads(turn++);
      const std::string where =
          threads.where(m.name, config) + " " + to_string(storage);
      const auto ref = testutil::build_buffered_sort_and_search(
          testutil::quantized(m.a, storage), config);
      const auto ref_t = testutil::build_buffered_sort_and_search(
          testutil::quantized(at, storage), config);
      const BufferedMatrix bm = testutil::build_stored(m.a, config, storage);
      const BufferedMatrix bt = testutil::build_stored(at, config, storage);
      const auto weights = partition_nnz(bm);
      Workspace ws(2, config.buffsize, config.partsize);
      const auto x = parity_inputs(m.a.num_cols, 85).back();
      const auto y_full = parity_inputs(m.a.num_rows, 86).back();
      AlignedVector<real> want(static_cast<std::size_t>(m.a.num_rows));
      testutil::spmv_row_order(ref, x, want);
      for (const RowRange& range :
           make_subset_ranges(m.a.num_rows, 3, config.partsize)) {
        const std::string in_range = where + " rows [" +
                                     std::to_string(range.first) + ", " +
                                     std::to_string(range.last()) + ")";
        const idx_t p0 = range.first / config.partsize;
        const auto range_plan = ApplyPlan::build(
            std::span<const nnz_t>(weights).subspan(
                static_cast<std::size_t>(p0),
                static_cast<std::size_t>(
                    ceil_div(range.count, config.partsize))),
            2);
        const auto want_rows = std::span<const real>(want).subspan(
            static_cast<std::size_t>(range.first),
            static_cast<std::size_t>(range.count));
        AlignedVector<real> got(static_cast<std::size_t>(range.count));
        spmv_buffered_range(bm, range, x, got);
        EXPECT_TRUE(bitwise_equal(got, want_rows)) << "row range, " << in_range;
        std::fill(got.begin(), got.end(), -7.0f);
        spmv_buffered_range_planned(bm, range, range_plan, ws, x, got);
        EXPECT_TRUE(bitwise_equal(got, want_rows))
            << "row range planned, " << in_range;

        const auto index = BufferedColRange::build(bt, range);
        const auto col_plan = ApplyPlan::build(index.part_nnz, 2);
        const auto y = std::span<const real>(y_full).subspan(
            static_cast<std::size_t>(range.first),
            static_cast<std::size_t>(range.count));
        AlignedVector<real> masked(y_full.size(), 0.0f);
        std::copy(y.begin(), y.end(), masked.begin() + range.first);
        AlignedVector<real> want_t(static_cast<std::size_t>(m.a.num_cols));
        testutil::spmv_row_order(ref_t, masked, want_t);
        AlignedVector<real> got_t(want_t.size(), -7.0f);
        spmv_buffered_colrange(bt, index, y, got_t);
        EXPECT_TRUE(bitwise_equal(got_t, want_t)) << "col range, " << in_range;
        std::fill(got_t.begin(), got_t.end(), -7.0f);
        spmv_buffered_colrange_planned(bt, index, col_plan, ws, y, got_t);
        EXPECT_TRUE(bitwise_equal(got_t, want_t))
            << "col range planned, " << in_range;
      }
    }
  }
}

TEST(BufferedParity, ReducedPrecisionShardLocalKernelMatchesRowOrderKernelBitwise) {
  // bf16 and fp16 alternate over the sampled configs, P over pairs of them.
  int turn = 0;
  for (const auto& m : parity_matrices()) {
    const auto x = parity_inputs(m.a.num_cols, 87).back();
    const auto y = parity_inputs(m.a.num_rows, 88).back();
    for (const auto& config : m.sampled) {
      const ValueStorage storage = kReduced[turn % 2];
      const int shards = 1 + (turn / 2) % 2;
      const RotatingThreads threads(turn++);
      const CsrMatrix aq = testutil::quantized(m.a, storage);
      const auto ref = testutil::build_buffered_sort_and_search(aq, config);
      const auto ref_t =
          testutil::build_buffered_sort_and_search(transpose(aq), config);
      AlignedVector<real> want(static_cast<std::size_t>(m.a.num_rows));
      AlignedVector<real> want_t(static_cast<std::size_t>(m.a.num_cols));
      testutil::spmv_row_order(ref, x, want);
      testutil::spmv_row_order(ref_t, y, want_t);
      shard::ShardedOperator::Options opt;
      opt.num_shards = shards;
      opt.buffer = config;
      opt.precision = storage;
      const shard::ShardedOperator op(m.a, opt);
      const std::string where = threads.where(m.name, config) + " " +
                                to_string(storage) +
                                " shards=" + std::to_string(shards);
      AlignedVector<real> got(want.size(), -7.0f);
      op.apply(x, got);
      EXPECT_TRUE(bitwise_equal(got, want)) << "forward, " << where;
      AlignedVector<real> got_t(want_t.size(), -7.0f);
      op.apply_transpose(y, got_t);
      EXPECT_TRUE(bitwise_equal(got_t, want_t)) << "transpose, " << where;
    }
  }
}

/// Decodes all 65,536 bit patterns through Decode — its one-value decode
/// (the K > 1 lane body's; on an AVX-512 build F16C's for fp16) and, on an
/// AVX-512 build, the masked SIMD load the K = 1 body uses — and checks
/// them against the scalar decoder of sparse/precision.hpp: bitwise on
/// every pattern the encoder can emit (those it maps back to themselves),
/// and NaN for NaN on the rest (the hardware quietens signalling fp16 NaNs,
/// which the encoder never emits).
template <class Decode>
void expect_decoder_matches(real (*scalar)(std::uint16_t),
                            std::uint16_t (*encode)(float)) {
  alignas(64) std::uint16_t bits[kSliceRows];
  alignas(64) real got[kSliceRows];
  const auto check = [&](const char* path) {
    for (idx_t r = 0; r < kSliceRows; ++r) {
      const real want = scalar(bits[r]);
      if (encode(want) == bits[r])
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[r]),
                  std::bit_cast<std::uint32_t>(want))
            << path << ", pattern 0x" << std::hex << bits[r];
      else
        EXPECT_TRUE(std::isnan(got[r]) && std::isnan(want))
            << path << ", pattern 0x" << std::hex << bits[r];
    }
  };
  for (std::uint32_t base = 0; base < 0x10000u; base += kSliceRows) {
    for (idx_t r = 0; r < kSliceRows; ++r)
      bits[r] = static_cast<std::uint16_t>(base + static_cast<std::uint32_t>(r));
    for (idx_t r = 0; r < kSliceRows; ++r) got[r] = Decode::scalar(bits[r]);
    check("one value");
#if MEMXCT_BUFFERED_AVX512
    _mm512_storeu_ps(got, Decode::load(static_cast<__mmask16>(0xffff), bits));
    check("masked load");
#endif
  }
}

TEST(BufferedDecode, EveryEncodablePatternDecodesLikeTheScalarDecoder) {
  expect_decoder_matches<detail::DecodeBf16>(bf16_to_fp32, fp32_to_bf16);
  expect_decoder_matches<detail::DecodeFp16>(fp16_to_fp32, fp32_to_fp16);
}

TEST(BufferedDecode, KernelBodyMultipliesByTheDecodedValue) {
  // Every pattern as a value of a one-entry row times x = 1, through the
  // K = 1 group body this build compiles (AVX-512 or portable): each row's
  // output is exactly 0 + (1 × decoded value).
  const auto run = [](auto decode, real (*scalar)(std::uint16_t)) {
    using Decode = decltype(decode);
    alignas(64) buf_idx_t ind[kSliceRows];
    alignas(64) std::uint16_t val[kSliceRows];
    alignas(64) real input[kSliceRows];
    alignas(64) idx_t len[kSliceRows];
    for (idx_t r = 0; r < kSliceRows; ++r) {
      ind[r] = static_cast<buf_idx_t>(r);
      input[r] = 1.0f;
      len[r] = 1;
    }
    for (std::uint32_t base = 0; base < 0x10000u; base += kSliceRows) {
      alignas(64) real out[kSliceRows] = {};
      for (idx_t r = 0; r < kSliceRows; ++r)
        val[r] =
            static_cast<std::uint16_t>(base + static_cast<std::uint32_t>(r));
      detail::group_k1<Decode, false>(ind, val, kSliceRows, 0, 1, nullptr, len,
                                      input, out);
      for (idx_t r = 0; r < kSliceRows; ++r) {
        const real want = real{0} + (real{0} + real{1} * scalar(val[r]));
        if (std::isnan(want))
          EXPECT_TRUE(std::isnan(out[r])) << "pattern 0x" << std::hex << val[r];
        else
          EXPECT_EQ(std::bit_cast<std::uint32_t>(out[r]),
                    std::bit_cast<std::uint32_t>(want))
              << "pattern 0x" << std::hex << val[r];
      }
    }
  };
  run(detail::DecodeBf16{}, bf16_to_fp32);
  run(detail::DecodeFp16{}, fp16_to_fp32);
}

}  // namespace
}  // namespace memxct::sparse
