// Fig 11 reproduction: weak and strong scaling with the A_p / C / R kernel
// breakdown.
//
// Weak scaling: starting from an ADS2-root dataset, each step doubles both
// sinogram dimensions (8x work) and multiplies ranks by 8, so per-rank work
// stays constant. Strong scaling: the RDS1 and RDS2 analogs at fixed size
// over a widening rank sweep. A_p and R are measured on the host per rank
// (max over ranks = SPMD wall time); C is the α–β Theta model driven by the
// exactly recorded exchange volumes. Expected shapes: flat A_p and O(√P) C
// under weak scaling; O(1/P) A_p under strong scaling until per-rank work
// vanishes.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/reconstructor.hpp"
#include "io/table.hpp"

namespace {

struct ScalePoint {
  std::string label;
  int ranks;
  double total_s, ap_s, comm_s, reduce_s;
};

ScalePoint run_point(const memxct::phantom::DatasetSpec& spec, int ranks,
                     int iterations) {
  using namespace memxct;
  const auto data = phantom::generate(spec, 4);
  core::Config config;
  config.num_shards = ranks;
  // Reduce builds the partitioned operator at P=1 too: the root point
  // needs the breakdown.
  config.shard_exchange = shard::Exchange::Reduce;
  config.shard_pipeline_tiles = 1;  // one alltoallv per apply
  config.machine = "Theta";
  config.iterations = iterations;
  const core::Reconstructor recon(data.geometry, config);
  (void)recon.reconstruct(data.sinogram);
  const auto& t = recon.shard_op()->stats();
  return {std::to_string(spec.angles) + "x" + std::to_string(spec.channels),
          ranks,
          t.compute_seconds + t.comm_modeled_seconds + t.reduce_seconds,
          t.compute_seconds,
          t.comm_modeled_seconds,
          t.reduce_seconds};
}

void print_table(const char* title, const std::vector<ScalePoint>& points) {
  memxct::io::TablePrinter table(title);
  table.header({"sinogram", "ranks", "total", "A_p", "C (modeled)", "R"});
  for (const auto& p : points)
    table.row({p.label, std::to_string(p.ranks),
               memxct::io::TablePrinter::time_s(p.total_s),
               memxct::io::TablePrinter::time_s(p.ap_s),
               memxct::io::TablePrinter::time_s(p.comm_s),
               memxct::io::TablePrinter::time_s(p.reduce_s)});
  table.print();
}

}  // namespace

int main() {
  using namespace memxct;
  const int iterations = 10;  // enough applies for stable per-kernel times

  // Fig 11(a)-style weak scaling: ADS2-root, 8x work and 8x ranks per step.
  {
    std::vector<ScalePoint> points;
    idx_t divisor = 4;
    int ranks = 1;
    for (int step = 0; step < 3; ++step) {
      points.push_back(
          run_point(bench::spec_for("ADS2", divisor), ranks, iterations));
      divisor /= 2;
      ranks *= 8;
      if (divisor < 1) break;
    }
    print_table("Fig 11(a): weak scaling, ADS2 root on modeled Theta",
                points);
    std::printf(
        "expected: A_p roughly flat, C grows ~sqrt(8)=2.8x per step.\n");
  }

  // Fig 11(c)-style strong scaling: RDS2 analog, fixed size, rank sweep.
  {
    std::vector<ScalePoint> points;
    const auto spec = bench::spec_for("RDS2", 2);
    for (const int ranks : {4, 8, 16, 32, 64, 128})
      points.push_back(run_point(spec, ranks, iterations));
    print_table("Fig 11(c): strong scaling, RDS2 analog on modeled Theta",
                points);
  }

  // Fig 11(d)-style strong scaling: RDS1 analog.
  {
    std::vector<ScalePoint> points;
    const auto spec = bench::spec_for("RDS1", 2);
    for (const int ranks : {4, 8, 16, 32, 64})
      points.push_back(run_point(spec, ranks, iterations));
    print_table("Fig 11(d): strong scaling, RDS1 analog on modeled Theta",
                points);
    std::printf(
        "expected: A_p drops ~1/P; C eventually dominates (its O(sqrt(P))\n"
        "handshake term), which is where the paper's strong scaling\n"
        "saturates (2048 nodes on Theta, 128 on Blue Waters).\n");
  }
  return 0;
}
