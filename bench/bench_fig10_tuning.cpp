// Fig 10 reproduction: tuning heat map of the buffered kernel — GFLOPS as
// a function of partition ("block") size and buffer size on the ADS2
// analog.
//
// The paper's third dimension (SMT per core) has no host equivalent here;
// the partsize x buffsize landscape and its interior optimum are the
// reproduction target. Too small a buffer forces many stages (staging
// overhead); too large a partition with a small buffer loses reuse; too
// large a buffer would leak out of L1 on real hardware (the model's 32 KB
// boundary).
//
// Each cell is the median over 5 timed forward applies with its IQR in
// brackets; `*` marks the default Config::buffer (128 rows, 16 KB), which
// this sweep is the evidence for.
//
//   bench_fig10_tuning [--json <path>] [--quick]
//
// --json writes one row per cell (partsize, buffsize in elements, median
// seconds, GB/s, GFLOP/s, GFLOP/s IQR). --quick sweeps the 2 x 2 corner
// {128, 256} x {4, 16} KB around the default.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "io/table.hpp"
#include "sparse/buffered.hpp"

int main(int argc, char** argv) {
  using namespace memxct;
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    else if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    else if (arg == "--quick") quick = true;
    else {
      std::fprintf(stderr, "usage: %s [--json <path>] [--quick]\n", argv[0]);
      return 1;
    }
  }

  const auto spec = bench::spec_paper_over("ADS2", 2);
  std::printf("ADS2 analog: %d x %d\n", spec.angles, spec.channels);
  const auto a = bench::build_matrix(spec, hilbert::CurveKind::Hilbert);

  AlignedVector<real> x(static_cast<std::size_t>(a.num_cols), 1.0f);
  AlignedVector<real> y(static_cast<std::size_t>(a.num_rows));

  const std::vector<idx_t> partsizes =
      quick ? std::vector<idx_t>{128, 256}
            : std::vector<idx_t>{16, 32, 64, 128, 256, 512, 1024};
  const std::vector<idx_t> buffer_kb =
      quick ? std::vector<idx_t>{4, 16}
            : std::vector<idx_t>{1, 2, 4, 8, 16, 32, 64};

  io::TablePrinter table("Fig 10: GFLOPS heat map, partsize x buffer size");
  std::vector<std::string> header{"partsize\\buffer"};
  for (const idx_t kb : buffer_kb) header.push_back(std::to_string(kb) + "KB");
  table.header(std::move(header));

  const sparse::BufferConfig defaults;
  std::string json = "[\n";
  const char* sep = "";
  double best = 0.0;
  idx_t best_part = 0, best_kb = 0;
  for (const idx_t partsize : partsizes) {
    std::vector<std::string> row{std::to_string(partsize)};
    for (const idx_t kb : buffer_kb) {
      const sparse::BufferConfig config{partsize,
                                        kb * 1024 / static_cast<idx_t>(
                                                        sizeof(real))};
      const auto bm = sparse::build_buffered(a, config);
      const auto samples =
          bench::time_samples([&] { sparse::spmv_buffered(bm, x, y); });
      const double t = bench::quantile(samples, 0.5);
      const auto work = sparse::buffered_work(bm);
      const double gflops = work.gflops(t);
      const double iqr = work.gflops(bench::quantile(samples, 0.25)) -
                         work.gflops(bench::quantile(samples, 0.75));
      if (gflops > best) {
        best = gflops;
        best_part = partsize;
        best_kb = kb;
      }
      const bool is_default = config.partsize == defaults.partsize &&
                              config.buffsize == defaults.buffsize;
      row.push_back(io::TablePrinter::num(gflops, 2) + " [" +
                    io::TablePrinter::num(iqr, 2) + "]" +
                    (is_default ? " *" : ""));
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s{\"partsize\": %d, \"buffsize\": %d, \"seconds\": "
                    "%.6g, \"gbs\": %.6g, \"gflops\": %.6g, "
                    "\"gflops_iqr\": %.6g}",
                    sep, static_cast<int>(config.partsize),
                    static_cast<int>(config.buffsize), t,
                    work.bandwidth_gbs(t), gflops, iqr);
      json += line;
      sep = ",\n";
    }
    table.row(std::move(row));
  }
  json += "\n]\n";
  table.print();
  table.write_csv("fig10_tuning.csv");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_fig10_tuning: cannot open %s\n",
                   json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::printf(
      "\npeak median: %.2f GFLOPS at partsize %d, buffer %d KB\n"
      "Paper reference: KNL peak at block size 128 with 8 KB buffers\n"
      "(4 SMT/core); GPUs peak at block 512-1024 with 48-96 KB shared\n"
      "memory.\n",
      best, best_part, best_kb);
  return 0;
}
