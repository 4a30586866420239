// Self-tests of the benchmark's own measurement code: exact quantiles,
// span self time, and the seeded request sequence.
//
//   xctbench_tests        (exit 0 = all pass)
#include <cmath>
#include <cstdio>
#include <vector>

#include "requests.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

void quantiles_are_nearest_rank() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  expect(xctbench::quantile(v, 0.5) == 100.0, "p50 of 1..200 is 100");
  expect(xctbench::quantile(v, 0.95) == 190.0, "p95 of 1..200 is 190");
  expect(xctbench::quantile(v, 1.0) == 200.0, "p100 is the maximum");
  expect(xctbench::quantile({7.0}, 0.95) == 7.0, "single sample");
  expect(xctbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  expect(xctbench::quantile({1.0, 2.0}, 0.5) == 1.0, "even count: lower");
}

void quantiles_never_exceed_max() {
  // A heavy tail that a power-of-two histogram would round up past the
  // largest sample: every quantile must be an observed value <= max.
  xctbench::SeedRng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v;
    const int n = 1 + static_cast<int>(rng.next() % 400);
    for (int i = 0; i < n; ++i) v.push_back(24.49 * rng.uniform() + 1e-3);
    const xctbench::Summary s(v);
    expect(s.p95 <= s.max && s.p50 <= s.p95, "p50 <= p95 <= max");
    expect(s.count == v.size(), "count");
    bool observed = false;
    for (double x : v) observed |= x == s.p95;
    expect(observed, "p95 is an observed sample");
  }
  const std::vector<double> v(20, 5.0);
  const xctbench::Summary s(v);
  expect(s.beyond_p95(v) == 0, "ties: nothing strictly beyond p95");
}

void self_time_subtracts_children() {
  using xctbench::Span;
  // root [0,100): children [10,30) and [20,50) overlap -> cover 40;
  // child [60,70) has its own child [62,68) which must not count for root.
  std::vector<Span> sp(5);
  auto set = [&](int i, std::int64_t a, std::int64_t b, int parent) {
    sp[static_cast<std::size_t>(i)].start_ns = a;
    sp[static_cast<std::size_t>(i)].end_ns = b;
    sp[static_cast<std::size_t>(i)].parent = parent;
  };
  set(0, 0, 100, -1);
  set(1, 10, 30, 0);
  set(2, 20, 50, 0);
  set(3, 60, 70, 0);
  set(4, 62, 68, 3);
  expect(xctbench::self_ns(sp, 0) == 100 - 40 - 10, "root self time");
  expect(xctbench::self_ns(sp, 3) == 10 - 6, "nested self time");
  expect(xctbench::self_ns(sp, 4) == 6, "leaf self time");

  // The recorder itself: a Scope nested in a Scope.
  xctbench::Tracer tr(4);
  {
    xctbench::Tracer::Scope outer(tr, "outer");
    xctbench::Tracer::Scope inner(tr, "inner", outer.index());
  }
  const auto rec = tr.spans();
  expect(rec.size() == 2 && rec[1].parent == 0, "scope parent link");
  expect(xctbench::self_ns(rec, 0) >= 0 &&
             xctbench::self_ns(rec, 0) <= rec[0].duration_ns(),
         "recorded self time within duration");
  for (int i = 0; i < 5; ++i) tr.add("x", 0, 1);
  expect(tr.dropped() == 3, "overflow is counted, not written");
}

void requests_are_seeded() {
  const std::vector<double> w = xctbench::zipf_weights(4, 1.0);
  double sum = 0.0;
  for (double x : w) sum += x;
  expect(std::fabs(sum - 1.0) < 1e-12 && w[0] > w[1] && w[1] > w[3],
         "zipf weights normalized and decreasing");
  const auto a = xctbench::make_requests(7, 500, w, 3);
  const auto b = xctbench::make_requests(7, 500, w, 3);
  const auto c = xctbench::make_requests(8, 500, w, 3);
  bool same = true, differs = false, in_range = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same &= a[i].cls == b[i].cls && a[i].input == b[i].input;
    differs |= a[i].cls != c[i].cls || a[i].input != c[i].input;
    in_range &= a[i].cls >= 0 && a[i].cls < 4 && a[i].input >= 0 &&
                a[i].input < 3;
  }
  expect(same, "same seed, same request sequence");
  expect(differs, "different seed, different request sequence");
  expect(in_range, "classes and inputs in range");
  int top = 0;
  for (const auto& x : a) top += x.cls == 0;
  expect(top > 150 && top < 330, "rank-1 class share near its weight");
}

}  // namespace

int main() {
  quantiles_are_nearest_rank();
  quantiles_never_exceed_max();
  self_time_subtracts_children();
  requests_are_seeded();
  if (failures == 0) std::printf("xctbench_tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
