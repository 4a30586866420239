// Tests for the public MemXCT API: operator kernel equivalence, the
// end-to-end Reconstructor pipeline, and the validate_config gate.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/reconstructor.hpp"
#include "geometry/projector.hpp"
#include "phantom/datasets.hpp"
#include "phantom/phantom.hpp"
#include "test_util.hpp"

namespace memxct::core {
namespace {

class KernelKinds : public ::testing::TestWithParam<KernelKind> {};

TEST_P(KernelKinds, OperatorMatchesReferenceBothWays) {
  const auto g = geometry::make_geometry(16, 20);
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  auto a = geometry::build_projection_matrix(g, sino, tomo);
  const auto a_copy = a;  // the operator consumes a
  const MemXCTOperator op(std::move(a), GetParam(), {16, 64});

  const auto x = testutil::random_vector(op.num_cols(), 81);
  AlignedVector<real> y_op(static_cast<std::size_t>(op.num_rows()));
  AlignedVector<real> y_ref(static_cast<std::size_t>(op.num_rows()));
  op.apply(x, y_op);
  sparse::spmv_reference(a_copy, x, y_ref);
  EXPECT_LT(testutil::rel_error(y_op, y_ref), 1e-5);

  const auto y = testutil::random_vector(op.num_rows(), 82);
  AlignedVector<real> x_op(static_cast<std::size_t>(op.num_cols()));
  AlignedVector<real> x_ref(static_cast<std::size_t>(op.num_cols()), 0.0f);
  op.apply_transpose(y, x_op);
  // Reference transpose multiply: accumulate column-wise.
  for (idx_t r = 0; r < a_copy.num_rows; ++r)
    for (nnz_t k = a_copy.displ[r]; k < a_copy.displ[r + 1]; ++k)
      x_ref[static_cast<std::size_t>(a_copy.ind[k])] +=
          a_copy.val[k] * y[static_cast<std::size_t>(r)];
  EXPECT_LT(testutil::rel_error(x_op, x_ref), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelKinds,
                         ::testing::Values(KernelKind::Baseline,
                                           KernelKind::EllBlock,
                                           KernelKind::Buffered,
                                           KernelKind::Library));

TEST(Reconstructor, RecoversPhantomFromCleanData) {
  const auto spec = phantom::dataset("ADS1").scaled_by(8);  // 45x32
  const auto data = phantom::generate(spec, 7);
  Config config;
  config.iterations = 25;
  const Reconstructor recon(data.geometry, config);
  const auto result = recon.reconstruct(data.sinogram);

  const std::vector<real> zeros(data.image.size(), 0.0f);
  const double err = phantom::rmse(result.image, data.image);
  const double baseline = phantom::rmse(zeros, data.image);
  EXPECT_LT(err, 0.3 * baseline);
  EXPECT_EQ(result.solve.iterations, 25);
  EXPECT_FALSE(result.solve.history.empty());
}

TEST(Reconstructor, AllKernelsAndOrderingsAgree) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 8);
  std::vector<real> reference;
  for (const auto ordering :
       {hilbert::CurveKind::RowMajor, hilbert::CurveKind::Hilbert,
        hilbert::CurveKind::Morton}) {
    for (const auto kernel : {KernelKind::Baseline, KernelKind::Buffered,
                              KernelKind::EllBlock}) {
      Config config;
      config.ordering = ordering;
      config.kernel = kernel;
      config.iterations = 10;
      const Reconstructor recon(data.geometry, config);
      const auto result = recon.reconstruct(data.sinogram);
      if (reference.empty()) {
        reference = result.image;
      } else {
        // Different summation orders: small float drift allowed.
        EXPECT_LT(testutil::rel_error(result.image, reference), 5e-3)
            << to_string(ordering) << " / " << to_string(kernel);
      }
    }
  }
}

TEST(Reconstructor, DistributedPathMatchesSerial) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 9);
  Config serial_config;
  serial_config.iterations = 8;
  serial_config.kernel = KernelKind::Baseline;
  Config dist_config = serial_config;
  dist_config.num_shards = 5;
  dist_config.shard_exchange = shard::Exchange::Reduce;

  const Reconstructor serial(data.geometry, serial_config);
  const Reconstructor dist(data.geometry, dist_config);
  ASSERT_NE(dist.shard_op(), nullptr);
  EXPECT_EQ(serial.shard_op(), nullptr);

  const auto r_serial = serial.reconstruct(data.sinogram);
  const auto r_dist = dist.reconstruct(data.sinogram);
  // Reduction-order float drift through CG iterations; see test_dist.
  EXPECT_LT(testutil::rel_error(r_dist.image, r_serial.image), 2e-2);
  EXPECT_GT(dist.shard_op()->stats().applies, 0);
}

TEST(Reconstructor, SolverChoicesRun) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 10);
  for (const auto solver :
       {SolverKind::CGLS, SolverKind::SIRT, SolverKind::GradientDescent}) {
    Config config;
    config.solver = solver;
    config.iterations = 5;
    const Reconstructor recon(data.geometry, config);
    const auto result = recon.reconstruct(data.sinogram);
    EXPECT_EQ(result.solve.iterations, 5) << to_string(solver);
    // Some reconstruction happened.
    double sum = 0.0;
    for (const real v : result.image) sum += std::abs(v);
    EXPECT_GT(sum, 0.0);
  }
}

TEST(Reconstructor, PreprocessReportIsPopulated) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 11);
  const Reconstructor recon(data.geometry, Config{});
  const auto& report = recon.preprocess_report();
  EXPECT_GT(report.nnz, 0);
  EXPECT_GT(report.regular_bytes, 0);
  EXPECT_GT(report.irregular_bytes, 0);
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GE(report.total_seconds, report.trace_seconds);
}

TEST(Reconstructor, EarlyStopShortensSolve) {
  // Noisy data makes the residual plateau at the noise floor — the
  // overfitting knee the heuristic is designed to detect (Section 3.5.2).
  const auto spec = phantom::dataset("ADS1").scaled_by(8);
  const auto data = phantom::generate(spec, 12, /*incident_photons=*/1e3);
  Config config;
  config.iterations = 300;
  config.early_stop = true;
  const Reconstructor recon(data.geometry, config);
  const auto result = recon.reconstruct(data.sinogram);
  EXPECT_LT(result.solve.iterations, 300);
}

TEST(Reconstructor, PreprocessingReusedAcrossSlices) {
  // Table 5's amortization: one Reconstructor reconstructs many slices.
  // Shale phantoms are seed-dependent, so distinct seeds are distinct
  // slices (Shepp-Logan is deterministic and would alias).
  const auto spec = phantom::dataset("RDS1").scaled_by(32);
  const auto a = phantom::generate(spec, 13);
  const auto b = phantom::generate(spec, 14);
  Config config;
  config.iterations = 5;
  const Reconstructor recon(a.geometry, config);
  const auto ra = recon.reconstruct(a.sinogram);
  const auto rb = recon.reconstruct(b.sinogram);
  EXPECT_NE(ra.image, rb.image);  // different slices, same preprocessing
}

TEST(Reconstructor, RejectsWrongSinogramSize) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 15);
  const Reconstructor recon(data.geometry, []{ Config c; c.iterations = 2; return c; }());
  const AlignedVector<real> wrong(13);
  EXPECT_THROW(recon.reconstruct(wrong), InvariantError);
}

// ---------------------------------------------------------------------------
// validate_config: the single source of truth shared by the Reconstructor
// and serve admission.

TEST(ValidateConfig, DefaultConfigPasses) {
  EXPECT_NO_THROW(core::validate_config(core::Config{}));
}

TEST(ValidateConfig, ScalarRangeChecks) {
  core::Config config;
  config.num_shards = 0;
  EXPECT_THROW(core::validate_config(config), InvalidArgument);
  config = core::Config{};
  config.num_shards = -1;
  EXPECT_THROW(core::validate_config(config), InvalidArgument);
  // Buffer sizes outside partsize >= 1, 1 <= buffsize <= 65536.
  for (const sparse::BufferConfig buffer :
       {sparse::BufferConfig{0, 4096}, sparse::BufferConfig{-4, 4096},
        sparse::BufferConfig{128, 0}, sparse::BufferConfig{128, 65537},
        sparse::BufferConfig{128, 70000}}) {
    config = core::Config{};
    config.buffer = buffer;
    EXPECT_THROW(core::validate_config(config), InvalidArgument)
        << buffer.partsize << "/" << buffer.buffsize;
  }
  config = core::Config{};
  config.buffer = {1, 65536};
  EXPECT_NO_THROW(core::validate_config(config));
}

TEST(ValidateConfig, PairwiseConflictsNameTheFlags) {
  {
    core::Config config;
    config.shard_exchange = shard::Exchange::Reduce;
    config.kernel = core::KernelKind::EllBlock;
    try {
      core::validate_config(config);
      FAIL() << "expected UnsupportedConfigError";
    } catch (const UnsupportedConfigError& e) {
      EXPECT_EQ(e.flag_a(), "--shards");
      EXPECT_EQ(e.flag_b(), "--kernel");
    }
  }
  {
    core::Config config;
    config.kernel = core::KernelKind::EllBlock;
    config.precision = sparse::ValueStorage::Fp16;
    try {
      core::validate_config(config);
      FAIL() << "expected UnsupportedConfigError";
    } catch (const UnsupportedConfigError& e) {
      EXPECT_EQ(e.flag_a(), "--kernel");
      EXPECT_EQ(e.flag_b(), "--precision");
    }
  }
}

}  // namespace
}  // namespace memxct::core
