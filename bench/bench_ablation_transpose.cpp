// Ablation: scan-based (order-preserving) vs atomic (order-randomizing)
// sparse transposition — Section 3.5.1's preprocessing design choice —
// plus the order-preserving transpose the operator build uses: the
// backward buffered layout straight from the forward one, with no CSR A^T.
//
// Both produce a numerically correct A^T; the atomic variant destroys the
// within-row entry ordering that the pseudo-Hilbert layout created, which
// (1) breaks the sortedness the buffered-matrix builder requires and
// (2) degrades the gather locality of the plain CSR backprojection.
#include <cstdio>

#include "bench_util.hpp"
#include "cachesim/spmv_trace.hpp"
#include "io/table.hpp"
#include "sparse/buffered.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"

int main() {
  using namespace memxct;
  const auto spec = bench::spec_paper_over("ADS2", 2);
  std::printf("ADS2 analog: %d x %d\n", spec.angles, spec.channels);
  const auto a = bench::build_matrix(spec, hilbert::CurveKind::Hilbert);

  // Build time of each strategy, median and IQR over repeated builds, and
  // the bytes it holds besides its input and its final result: a CSR A^T
  // for the two CSR transposes (the buffered build then reads it), none for
  // the buffered transpose.
  const auto build_time = [](auto&& build) {
    const std::vector<double> s = bench::time_samples(build, 5);
    return io::TablePrinter::time_s(bench::quantile(s, 0.5)) + " (IQR " +
           io::TablePrinter::time_s(bench::quantile(s, 0.75) -
                                    bench::quantile(s, 0.25)) +
           ")";
  };
  const std::string t_scan_build =
      build_time([&] { (void)sparse::transpose(a); });
  const std::string t_atomic_build =
      build_time([&] { (void)sparse::transpose_atomic(a); });
  const auto scan = sparse::transpose(a);
  const auto atomic = sparse::transpose_atomic(a);
  const auto fwd = sparse::build_buffered(a, {128, 4096});
  const std::string t_buffered_build =
      build_time([&] { (void)sparse::transpose_buffered(fwd); });
  const auto bwd = sparse::transpose_buffered(fwd);
  const std::string csr_bytes =
      io::TablePrinter::bytes(static_cast<double>(scan.regular_bytes()));

  AlignedVector<real> y(static_cast<std::size_t>(a.num_rows), 1.0f);
  AlignedVector<real> x(static_cast<std::size_t>(a.num_cols));
  const double t_scan =
      bench::time_kernel([&] { sparse::spmv_csr(scan, y, x); });
  // The atomic transpose's rows may be unsorted; spmv_csr does not care
  // numerically, only locality differs.
  const double t_atomic =
      bench::time_kernel([&] { sparse::spmv_csr(atomic, y, x); });
  const double t_buffered =
      bench::time_kernel([&] { sparse::spmv_buffered(bwd, y, x); });

  auto h1 = cachesim::knl_core_hierarchy();
  const double miss_scan =
      cachesim::replay_gather_stream(scan, h1, 4096).l2_miss_rate();
  auto h2 = cachesim::knl_core_hierarchy();
  const double miss_atomic =
      cachesim::replay_gather_stream(atomic, h2, 4096).l2_miss_rate();

  io::TablePrinter table(
      "Ablation: transposition strategy (Section 3.5.1)");
  table.header({"strategy", "build time", "transient", "backproj GFLOPS",
                "sim L2 miss (KNL core)", "rows sorted"});
  table.row({"scan-based (MemXCT)", t_scan_build, csr_bytes,
             io::TablePrinter::num(sparse::csr_work(scan).gflops(t_scan), 2),
             io::TablePrinter::num(100.0 * miss_scan, 2) + "%", "yes"});
  bool sorted = true;
  for (idx_t r = 0; r < atomic.num_rows && sorted; ++r)
    for (nnz_t k = atomic.displ[r] + 1; k < atomic.displ[r + 1]; ++k)
      if (atomic.ind[k - 1] >= atomic.ind[k]) {
        sorted = false;
        break;
      }
  table.row({"atomic scatter", t_atomic_build, csr_bytes,
             io::TablePrinter::num(sparse::csr_work(atomic).gflops(t_atomic), 2),
             io::TablePrinter::num(100.0 * miss_atomic, 2) + "%",
             sorted ? "yes (1 thread)" : "no"});
  table.row({"buffered, from the forward layout", t_buffered_build,
             io::TablePrinter::bytes(0.0),
             io::TablePrinter::num(sparse::buffered_work(bwd).gflops(t_buffered),
                                   2),
             "-", "yes"});
  table.print();
  table.write_csv("ablation_transpose.csv");
  std::printf(
      "\nNote: with one OpenMP thread the atomic variant happens to retain\n"
      "order; the paper's objection concerns many-thread runs where the\n"
      "interleaving randomizes rows and the buffered builder would reject\n"
      "them (it requires sorted rows).\n");
  return 0;
}
