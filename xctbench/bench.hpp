// Shared declarations of the repository benchmark binary (main.cpp) and its
// workloads (workloads.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xctbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< Scratch directory for the disk tier and spans.
  double triad_gbps = 0.0;  ///< Host ceiling; measured before traced runs.
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Metric values by name; units come from the metric tables in main.cpp.
  std::map<std::string, double> metrics;
  /// Correctness-gate violations; any entry fails the run.
  std::vector<std::string> gate_errors;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

RunResult run_cold_slice(const RunOptions& options);
RunResult run_batch_warm(const RunOptions& options);

/// Process resident-set high-water mark control (Linux /proc).
void reset_peak_rss();
double peak_rss_mb();

}  // namespace xctbench
