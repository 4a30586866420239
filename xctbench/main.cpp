// Repository benchmark binary.
//
//   xctbench --workload cold_slice|batch_warm --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints notes, then as its last stdout line one JSON object
//   {"correct": true, "attempted": A, "failed": F, "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Per-image hashes and PSNRs go to stderr. A failed
// correctness gate prints the violations to stderr and exits 1 without a
// result line. Traced runs also measure the host's STREAM-triad bandwidth
// (the roofline base) and write a span file into --out-dir.
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "perf/timer.hpp"

namespace {

using namespace xctbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"time_to_image_s", "s"},
    {"slices_per_s", "1/s"},   {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},  {"slo_met_frac", "fraction"},
    {"peak_rss_mb", "MiB"},    {"psnr_db", "dB"},
};

constexpr MetricDef kPerLayer[] = {
    {"hilbert.order_s", "s"},
    {"geometry.trace_s", "s"},
    {"geometry.nnz", "count"},
    {"sparse.transpose_s", "s"},
    {"sparse.build_buffered_s", "s"},
    {"core.operator_build_s", "s"},
    {"core.operator_mb", "MiB"},
    {"core.peak_over_resident", "ratio"},
    {"sparse.fwd_ms", "ms"},
    {"sparse.bwd_ms", "ms"},
    {"sparse.fwd_gbps", "GB/s"},
    {"sparse.bwd_gbps", "GB/s"},
    {"sparse.fwd_roofline_frac", "fraction"},
    {"sparse.bwd_roofline_frac", "fraction"},
    {"sparse.bytes_per_fma", "B/FMA"},
    {"sparse.block_fwd_ms", "ms"},
    {"sparse.block_bwd_ms", "ms"},
    {"perf.triad_gbps", "GB/s"},
    {"core.solve_s", "s"},
    {"solve.iterations", "count"},
    {"solve.self_s", "s"},
    {"solve.apply_share", "fraction"},
    {"core.ingest_order_ms", "ms"},
    {"core.depermute_ms", "ms"},
    {"batch.avg_wave_width", "slices"},
    {"batch.waves", "count"},
    {"batch.queue_high_water", "count"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p95", "ms"},
    {"serve.miss_setup_ms_p50", "ms"},
    {"serve.solve_ms_p50", "ms"},
    {"serve.registry_hit_rate", "fraction"},
    {"serve.builds", "count"},
    {"serve.evictions", "count"},
    {"serve.disk_tier_hits", "count"},
    {"serve.rejected", "count"},
    {"resil.cache_load_s", "s"},
    {"shard.comm_s", "s"},
    {"shard.compute_s", "s"},
    {"trace.overhead_frac", "fraction"},
};

/// Size in bytes of the largest (last-level) CPU cache, from sysfs.
std::int64_t llc_bytes() {
  std::int64_t best = 0;
  int best_level = -1;
  const std::filesystem::path dir = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind("index", 0) != 0) continue;
    int level = 0;
    std::string size;
    std::ifstream(e.path() / "level") >> level;
    std::ifstream(e.path() / "size") >> size;
    if (size.empty()) continue;
    std::int64_t bytes = std::atoll(size.c_str());
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level > best_level || (level == best_level && bytes > best)) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

/// STREAM triad a = b + s·c over arrays each at least 4× the LLC (and at
/// least 256 MiB); best of five passes, counting 24 bytes per element.
double triad_gbps(std::string& note) {
  const std::int64_t llc = llc_bytes();
  const std::int64_t bytes = std::max<std::int64_t>(4 * llc, std::int64_t{256} << 20);
  const auto n = static_cast<std::size_t>(bytes / 8);
  double best = 0.0;
  {
    std::vector<double> a(n), b(n), c(n);
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
    for (int rep = 0; rep < 5; ++rep) {
      memxct::perf::WallTimer t;
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
      best = std::max(best, 24.0 * static_cast<double>(n) / t.seconds() * 1e-9);
    }
    if (a[n / 2] != 7.0) best = 0.0;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "perf: STREAM triad %.2f GB/s over 3 x %.0f MiB arrays "
                "(LLC %.0f MiB, %d threads)",
                best, static_cast<double>(n) * 8 / 1048576.0,
                static_cast<double>(llc) / 1048576.0, omp_get_max_threads());
  note = buf;
  return best;
}

int usage() {
  std::fprintf(stderr,
               "usage: xctbench --workload cold_slice|batch_warm "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  o.out_dir = ".bench_build/xctbench-out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--out-dir") o.out_dir = v;
    else return usage();
  }
  if (argc % 2 == 0 || o.workload.empty() || !(o.seconds > 0)) return usage();

  RunResult r;
  try {
    std::filesystem::create_directories(o.out_dir);
    std::string triad_note;
    if (o.trace) {
      o.triad_gbps = triad_gbps(triad_note);
      std::printf("%s\n", triad_note.c_str());
    }
    if (o.workload == "cold_slice") r = run_cold_slice(o);
    else if (o.workload == "batch_warm") r = run_batch_warm(o);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xctbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());

  // Every metric of the run's table must be present and finite; per-layer
  // metrics of layers the workload does not reach are reported as 0.
  std::string json = "{";
  std::string not_applicable;
  bool first = true;
  const auto emit = [&](const MetricDef& d) {
    double v = 0.0;
    const auto it = r.metrics.find(d.name);
    if (it != r.metrics.end()) v = it->second;
    else if (o.trace) not_applicable += std::string(" ") + d.name;
    else r.gate_errors.push_back(std::string("metric missing: ") + d.name);
    if (!std::isfinite(v))
      r.gate_errors.push_back(std::string("metric not finite: ") + d.name);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name, v, d.unit);
    json += buf;
    first = false;
  };
  if (o.trace)
    for (const MetricDef& d : kPerLayer) emit(d);
  else
    for (const MetricDef& d : kEndToEnd) emit(d);
  json += "}";
  if (!not_applicable.empty())
    std::printf("not on this workload's path (reported as 0):%s\n",
                not_applicable.c_str());

  if (!r.gate_errors.empty()) {
    for (const std::string& e : r.gate_errors)
      std::fprintf(stderr, "xctbench: correctness gate: %s\n", e.c_str());
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), json.c_str());
  return 0;
}
