// Mouse-brain distributed reconstruction (the paper's Fig 1 headline run,
// at working scale): a large vasculature slice reconstructed with 30 CG
// iterations over P simulated ranks with the paper's reduce exchange,
// reporting the A_p / C / R kernel breakdown and per-rank memory the paper
// emphasizes.
//
//   ./brain_distributed [ranks] [scale_divisor]
#include <cstdio>
#include <cstdlib>

#include "core/reconstructor.hpp"
#include "io/pgm.hpp"
#include "io/table.hpp"
#include "phantom/datasets.hpp"
#include "phantom/phantom.hpp"

int main(int argc, char** argv) {
  using namespace memxct;
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 16;
  const idx_t divisor =
      argc > 2 ? static_cast<idx_t>(std::atoi(argv[2])) : 32;
  const auto spec = phantom::dataset("RDS2").scaled_by(divisor);
  std::printf(
      "RDS2 mouse-brain analog: %d x %d sinogram -> %dx%d tomogram, "
      "%d simulated ranks (paper: %d x %d on 4096 KNL nodes)\n",
      spec.angles, spec.channels, spec.channels, spec.channels, ranks,
      spec.paper_angles, spec.paper_channels);

  const auto data = phantom::generate(spec, /*seed=*/2, 5e4);

  core::Config config;
  config.num_shards = ranks;
  config.shard_exchange = shard::Exchange::Reduce;
  config.shard_pipeline_tiles = 1;  // one alltoallv per apply, as the paper
  config.machine = "Theta";
  config.iterations = 30;
  const core::Reconstructor recon(data.geometry, config);
  const auto result = recon.reconstruct(data.sinogram);
  const auto* op = recon.shard_op();

  std::printf("preprocessing %.2f s, reconstruction %.2f s (30 CG iters)\n",
              recon.preprocess_report().total_seconds, result.solve.seconds);
  std::printf("rmse vs ground truth: %.4f\n",
              phantom::rmse(result.image, data.image));

  const auto& stats = op->stats();
  io::TablePrinter breakdown("Kernel breakdown over the solve (Fig 11 style)");
  breakdown.header({"kernel", "time", "share"});
  const double total = stats.compute_seconds + stats.comm_modeled_seconds +
                       stats.reduce_seconds;
  const auto share = [total](double t) {
    return io::TablePrinter::num(100.0 * t / total, 1) + "%";
  };
  breakdown.row({"A_p (partial projections)",
                 io::TablePrinter::time_s(stats.compute_seconds),
                 share(stats.compute_seconds)});
  breakdown.row({"C (modeled Theta alltoallv)",
                 io::TablePrinter::time_s(stats.comm_modeled_seconds),
                 share(stats.comm_modeled_seconds)});
  breakdown.row({"R (reductions)",
                 io::TablePrinter::time_s(stats.reduce_seconds),
                 share(stats.reduce_seconds)});
  breakdown.print();

  std::int64_t max_mem = 0;
  for (int r = 0; r < ranks; ++r)
    max_mem = std::max(max_mem, op->rank_bytes(r));
  const std::int64_t total_mem = op->bytes();
  std::printf(
      "per-rank memory: max %s of %s total (the 1/P footprint scaling)\n",
      io::TablePrinter::bytes(static_cast<double>(max_mem)).c_str(),
      io::TablePrinter::bytes(static_cast<double>(total_mem)).c_str());
  std::printf("partial sinogram rows (nnz of C/R): %lld vs %lld owned rows\n",
              static_cast<long long>(op->total_partial_rows()),
              static_cast<long long>(data.geometry.sinogram_extent().size()));

  io::write_pgm_autoscale("brain_reconstruction.pgm",
                          data.geometry.tomogram_extent(), result.image);
  std::printf("wrote brain_reconstruction.pgm\n");
  return 0;
}
