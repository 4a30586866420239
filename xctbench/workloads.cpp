// The benchmark's two workloads. Each drives the library only through its
// public API, times the calls from outside, and checks every image it gets
// back against the ground-truth phantom it was synthesized from.
//
//   cold_slice   fresh Reconstructor + one reconstruction, closed loop
//   batch_warm   one operator, waves of 8 slices through BatchReconstructor
//
// A traced run (--trace 1) first repeats the untraced work once, then
// re-executes the same steps with spans around every layer call; the traced
// images must be bitwise-equal to the untraced ones. The traced cold_slice
// run also probes the serving stack (serve::Server, its operator registry
// and disk tier, sharded operators), which neither workload reaches
// otherwise.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.hpp"
#include "bench.hpp"
#include "core/reconstructor.hpp"
#include "geometry/projector.hpp"
#include "perf/timer.hpp"
#include "phantom/phantom.hpp"
#include "resil/checked_io.hpp"
#include "requests.hpp"
#include "serve/server.hpp"
#include "sparse/buffered.hpp"
#include "sparse/transpose.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace xctbench {

namespace {

using namespace memxct;

// Inputs and the correctness gate.
constexpr double kIncidentPhotons = 2e4;
constexpr int kIterations = 30;  ///< core::Config default; the gate pins it.
/// Lowest acceptable PSNR (stats.hpp: RMS reference level) of any image
/// against its ground-truth phantom. The unmodified library reached at
/// least 16.1 dB on every image of every workload over ten seeds each; the
/// floor sits 3 dB under that.
constexpr double kPsnrFloorDb = 13.0;

// cold_slice / batch_warm geometry: 480 angles × 320 channels, a 58.7M-nonzero
// operator of 718 MiB — each direction alone exceeds a 300 MiB L3.
constexpr idx_t kDramN = 320;
constexpr idx_t kDramAngles = kDramN * 3 / 2;
constexpr int kBlockWidth = 8;
/// Latency limits behind slo_met_frac on the two offline workloads.
constexpr double kColdSloS = 60.0;
constexpr double kBatchSloS = 120.0;

// Serve probe. Classes are listed in Zipf popularity order (rank 1 first);
// the largest is served sharded. Its rebuild costs several times any other
// (the sharded build), so it is also the most popular: under LRU it is then
// almost never the eviction victim, and the evictions fall on the small
// classes. The budget is just under the four operators together (10.6 MiB),
// so one class is always out and any single eviction makes room.
struct ServeClass {
  idx_t n;
  int shards;
};
constexpr ServeClass kServeClasses[] = {{64, 2}, {32, 1}, {40, 1}, {48, 1}};
constexpr int kNumClasses = 4;
constexpr double kZipfExponent = 3.0;
constexpr int kInputPool = 4;  ///< Distinct sinograms per class.
constexpr int kServeRequests = 600;
constexpr std::int64_t kRegistryBudget = std::int64_t{10400} << 10;
constexpr int kServeWorkers = 2;  ///< One closed-loop client per worker.
constexpr int kServeThreadsPerWorker = 2;

constexpr double kMiB = 1024.0 * 1024.0;

struct Input {
  std::vector<real> truth;
  AlignedVector<real> sinogram;
};

Input synthesize(const geometry::Geometry& g, std::uint64_t seed) {
  Input in;
  in.truth = phantom::shale_phantom(g.image_size, seed);
  in.sinogram = phantom::forward_project(g, in.truth);
  Rng rng(derive_seed(seed, 2));
  phantom::add_poisson_noise(in.sinogram, kIncidentPhotons, rng);
  return in;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

/// Correctness gate: PSNR floor, exactly kIterations CGLS iterations, finite
/// residuals, no divergence or cancellation. Prints each image hash.
class Gate {
 public:
  explicit Gate(RunResult& r) : r_(r) {}

  void fail(const std::string& why) { r_.gate_errors.push_back(why); }

  void check(const std::string& what, std::span<const real> image,
             std::span<const real> truth, const solve::SolveResult& s) {
    const double p = psnr_db(image, truth);
    min_psnr_ = std::min(min_psnr_, p);
    std::fprintf(stderr, "image %s hash=%s psnr=%.3f\n", what.c_str(),
                 hex(image_hash(image)).c_str(), p);
    if (!(p >= kPsnrFloorDb))
      fail(what + ": PSNR " + fmt("%.3f", p) + " dB under the floor");
    if (s.iterations != kIterations ||
        static_cast<int>(s.history.size()) != kIterations)
      fail(what + ": " + std::to_string(s.iterations) + " iterations, not " +
           std::to_string(kIterations));
    if (s.diverged || s.cancelled) fail(what + ": solve diverged/cancelled");
    for (const auto& h : s.history)
      if (!std::isfinite(h.residual_norm)) {
        fail(what + ": non-finite residual");
        break;
      }
  }

  [[nodiscard]] double min_psnr() {
    if (!std::isfinite(min_psnr_)) {
      fail("no image was checked");
      return 0.0;
    }
    return min_psnr_;
  }

 private:
  RunResult& r_;
  double min_psnr_ = std::numeric_limits<double>::infinity();
};

/// Fills the latency-shaped end-to-end metrics from raw samples (seconds).
void add_latency(RunResult& r, const char* label,
                 const std::vector<double>& seconds) {
  const Summary s(seconds);
  r.metrics["latency_p50_ms"] = s.p50 * 1e3;
  r.metrics["latency_p95_ms"] = s.p95 * 1e3;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%s latency: n=%zu p50=%.3f ms p95=%.3f ms max=%.3f ms "
                "(%zu samples above p95)",
                label, s.count, s.p50 * 1e3, s.p95 * 1e3, s.max * 1e3,
                s.beyond_p95(seconds));
  r.notes.emplace_back(buf);
}

// ---------------------------------------------------------------------------
// Tracing helpers.

/// Forwarding decorator: every apply becomes a child span of `parent`.
class TracedOperator final : public solve::LinearOperator {
 public:
  TracedOperator(const solve::LinearOperator& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void set_parent(int parent) { parent_ = parent; }

  [[nodiscard]] idx_t num_rows() const override { return inner_.num_rows(); }
  [[nodiscard]] idx_t num_cols() const override { return inner_.num_cols(); }
  void apply(std::span<const real> x, std::span<real> y) const override {
    Tracer::Scope s(tracer_, "apply", parent_);
    inner_.apply(x, y);
  }
  void apply_transpose(std::span<const real> y,
                       std::span<real> x) const override {
    Tracer::Scope s(tracer_, "apply_transpose", parent_);
    inner_.apply_transpose(y, x);
  }
  void apply_block(std::span<const real> x, std::span<real> y,
                   idx_t k) const override {
    Tracer::Scope s(tracer_, "apply_block", parent_);
    inner_.apply_block(x, y, k);
  }
  void apply_transpose_block(std::span<const real> y, std::span<real> x,
                             idx_t k) const override {
    Tracer::Scope s(tracer_, "apply_transpose_block", parent_);
    inner_.apply_transpose_block(y, x, k);
  }

 private:
  const solve::LinearOperator& inner_;
  Tracer& tracer_;
  int parent_ = -1;
};

/// The Reconstructor's build steps re-executed through public functions
/// with a span around each, plus a standalone transpose / buffered-build
/// split on a copy of the traced matrix.
struct TracedBuild {
  std::unique_ptr<hilbert::Ordering> sino;
  std::unique_ptr<hilbert::Ordering> tomo;
  std::unique_ptr<core::MemXCTOperator> op;
  nnz_t nnz = 0;
};

TracedBuild traced_build(const geometry::Geometry& g, const core::Config& c,
                         Tracer& tr) {
  TracedBuild b;
  sparse::CsrMatrix probe;
  {
    Tracer::Scope setup(tr, "setup");
    {
      Tracer::Scope s(tr, "hilbert.order", setup.index());
      b.sino = std::make_unique<hilbert::Ordering>(g.sinogram_extent(),
                                                   c.ordering, c.tile_size);
      b.tomo = std::make_unique<hilbert::Ordering>(g.tomogram_extent(),
                                                   c.ordering, c.tile_size);
    }
    sparse::CsrMatrix a;
    {
      Tracer::Scope s(tr, "geometry.trace", setup.index());
      a = geometry::build_projection_matrix(g, *b.sino, *b.tomo);
    }
    b.nnz = a.nnz();
    {
      Tracer::Scope s(tr, "probe.copy", setup.index());
      probe = a;
    }
    Tracer::Scope s(tr, "core.operator_build", setup.index());
    b.op = std::make_unique<core::MemXCTOperator>(
        std::move(a), c.kernel, c.buffer, c.ell_block_rows, c.schedule,
        c.precision);
  }
  sparse::CsrMatrix at;
  {
    Tracer::Scope s(tr, "sparse.transpose");
    at = sparse::transpose(probe);
  }
  sparse::BufferedMatrix fwd, bwd;
  {
    Tracer::Scope s(tr, "sparse.build_buffered");
    fwd = sparse::build_buffered(probe, c.buffer);
    bwd = sparse::build_buffered(at, c.buffer);
  }
  return b;
}

/// Standalone apply probes on `op` (traced): `reps` K=1 applies per
/// direction, and `reps` K=kBlockWidth block applies per direction.
void probe_applies(TracedOperator& op, Tracer& tr, int reps,
                   bool k1, bool block) {
  const auto n = static_cast<std::size_t>(op.num_cols());
  const auto m = static_cast<std::size_t>(op.num_rows());
  const int k = block ? kBlockWidth : 1;
  AlignedVector<real> x(n * static_cast<std::size_t>(k), real{1});
  AlignedVector<real> y(m * static_cast<std::size_t>(k), real{1});
  const int parent = tr.open("probe.applies");
  op.set_parent(parent);
  for (int i = 0; i < reps; ++i) {
    if (k1) {
      op.apply(std::span<const real>(x).first(n), std::span<real>(y).first(m));
      op.apply_transpose(std::span<const real>(y).first(m),
                         std::span<real>(x).first(n));
    }
    if (block) {
      op.apply_block(x, y, kBlockWidth);
      op.apply_transpose_block(y, x, kBlockWidth);
    }
  }
  tr.close(parent);
}

/// Times the ingest/ordering and de-permutation halves of a slice solve.
void probe_slice_io(const geometry::Geometry& g, const core::Config& c,
                    const TracedBuild& b, std::span<const real> sinogram,
                    std::span<const real> solved_x, Tracer& tr) {
  core::SliceWorkspace ws;
  {
    Tracer::Scope s(tr, "core.ingest_order");
    (void)core::ingest_and_order(g, c, *b.sino, sinogram, ws);
  }
  std::vector<real> image(static_cast<std::size_t>(g.tomogram_extent().size()));
  Tracer::Scope s(tr, "core.depermute");
  core::depermute_image(*b.tomo, solved_x, image);
}

double span_s(const std::vector<Span>& sp, const char* name) {
  const int i = find(sp, name);
  return i < 0 ? 0.0 : static_cast<double>(sp[static_cast<std::size_t>(i)].duration_ns()) * 1e-9;
}

double median_ms(const std::vector<Span>& sp, const char* name) {
  const std::vector<double> d = durations_ms(sp, name);
  return d.empty() ? 0.0 : median(d);
}

/// Per-layer metrics shared by every workload's traced pass.
void add_layer_metrics(RunResult& r, const RunOptions& o,
                       const std::vector<Span>& sp, const TracedBuild& b,
                       int solve_iterations, double peak_mb) {
  auto& m = r.metrics;
  m["hilbert.order_s"] = span_s(sp, "hilbert.order");
  m["geometry.trace_s"] = span_s(sp, "geometry.trace");
  m["geometry.nnz"] = static_cast<double>(b.nnz);
  m["sparse.transpose_s"] = span_s(sp, "sparse.transpose");
  m["sparse.build_buffered_s"] = span_s(sp, "sparse.build_buffered");
  m["core.operator_build_s"] = span_s(sp, "core.operator_build");
  const double op_mb = static_cast<double>(b.op->bytes()) / kMiB;
  m["core.operator_mb"] = op_mb;
  m["core.peak_over_resident"] = peak_mb / op_mb;

  const perf::KernelWork wf = b.op->forward_work();
  const perf::KernelWork wb = b.op->transpose_work();
  const double fwd_ms = median_ms(sp, "apply");
  const double bwd_ms = median_ms(sp, "apply_transpose");
  const double fwd_gbps = wf.regular_bytes() / (fwd_ms * 1e-3) * 1e-9;
  const double bwd_gbps = wb.regular_bytes() / (bwd_ms * 1e-3) * 1e-9;
  m["sparse.fwd_ms"] = fwd_ms;
  m["sparse.bwd_ms"] = bwd_ms;
  m["sparse.fwd_gbps"] = fwd_gbps;
  m["sparse.bwd_gbps"] = bwd_gbps;
  m["sparse.fwd_roofline_frac"] = fwd_gbps / o.triad_gbps;
  m["sparse.bwd_roofline_frac"] = bwd_gbps / o.triad_gbps;
  m["sparse.bytes_per_fma"] = (wf.regular_bytes() + wb.regular_bytes()) /
                              static_cast<double>(wf.nnz + wb.nnz);
  m["sparse.block_fwd_ms"] = median_ms(sp, "apply_block");
  m["sparse.block_bwd_ms"] = median_ms(sp, "apply_transpose_block");
  m["perf.triad_gbps"] = o.triad_gbps;

  const int solve = find(sp, "solve");
  if (solve >= 0) {
    const double dur =
        static_cast<double>(sp[static_cast<std::size_t>(solve)].duration_ns());
    const double self = static_cast<double>(self_ns(sp, solve));
    m["solve.iterations"] = solve_iterations;
    m["solve.self_s"] = self * 1e-9;
    m["solve.apply_share"] = (dur - self) / dur;
  }
  m["core.ingest_order_ms"] = span_s(sp, "core.ingest_order") * 1e3;
  m["core.depermute_ms"] = span_s(sp, "core.depermute") * 1e3;
}

void write_spans(RunResult& r, const RunOptions& o, const Tracer& tr) {
  const std::string path = o.out_dir + "/spans-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  const std::vector<Span> sp = tr.spans();
  if (!write_json(sp, path)) {
    r.gate_errors.push_back("could not write span file " + path);
    return;
  }
  r.notes.push_back("spans: " + std::to_string(sp.size()) + " written to " +
                    path + " (" + std::to_string(tr.dropped()) + " dropped)");
}

/// Serve-layer probe of the traced cold_slice run (defined below).
void probe_serve(const RunOptions& o, RunResult& r, Gate& gate, Tracer& tr);

}  // namespace

// ---------------------------------------------------------------------------
// cold_slice: the beamline user's path — a sinogram in memory, a fresh
// Reconstructor, one reconstruction. Closed loop of one caller for
// --seconds, at least three operations so set-up is a median of three.

RunResult run_cold_slice(const RunOptions& o) {
  RunResult r;
  Gate gate(r);
  const auto g = geometry::make_geometry(kDramAngles, kDramN);
  const core::Config config;
  const Input in = synthesize(g, derive_seed(o.seed, 1));
  reset_peak_rss();

  std::vector<double> setup, solve, tti;
  std::vector<real> first;
  const int min_ops = o.trace ? 1 : 3;
  perf::WallTimer loop;
  while (r.attempted < min_ops || (!o.trace && loop.seconds() < o.seconds)) {
    ++r.attempted;
    try {
      perf::WallTimer t;
      core::Reconstructor rec(g, config);
      const double s = t.seconds();
      core::ReconstructionResult res = rec.reconstruct(in.sinogram);
      const double total = t.seconds();
      setup.push_back(s);
      solve.push_back(total - s);
      tti.push_back(total);
      gate.check("cold_slice/" + std::to_string(r.attempted - 1), res.image,
                 in.truth, res.solve);
      if (first.empty())
        first = std::move(res.image);
      else if (res.image != first)
        gate.fail("cold_slice: repeated reconstructions differ bitwise");
    } catch (const std::exception& e) {
      ++r.failed;
      r.notes.push_back(std::string("cold_slice: operation failed: ") +
                        e.what());
    }
  }
  const double wall = loop.seconds();
  if (tti.empty()) {
    gate.fail("cold_slice: no reconstruction succeeded");
    return r;
  }
  const double peak = peak_rss_mb();

  if (!o.trace) {
    auto& m = r.metrics;
    m["setup_s"] = median(setup);
    m["time_to_image_s"] = median(tti);
    m["slices_per_s"] = static_cast<double>(tti.size()) / wall;
    add_latency(r, "cold_slice time-to-image", tti);
    m["slo_met_frac"] =
        static_cast<double>(std::count_if(tti.begin(), tti.end(),
                                          [](double v) { return v <= kColdSloS; })) /
        static_cast<double>(r.attempted);
    m["peak_rss_mb"] = peak;
    m["psnr_db"] = gate.min_psnr();
    std::string ops;
    for (std::size_t i = 0; i < tti.size(); ++i)
      ops += fmt(" %.3f", setup[i]) + fmt("+%.3f", solve[i]);
    r.notes.push_back("cold_slice: n=" + std::to_string(kDramN) + " angles=" +
                      std::to_string(kDramAngles) + ", setup+solve s:" + ops);
    return r;
  }

  // Traced pass: same steps through the public functions, with spans.
  Tracer tr(3 * kServeRequests + 4096);
  TracedBuild b = traced_build(g, config, tr);
  TracedOperator top(*b.op, tr);
  const int sv = tr.open("solve");
  top.set_parent(sv);
  core::ReconstructionResult res = core::reconstruct_slice(
      top, g, config, *b.sino, *b.tomo, in.sinogram);
  tr.close(sv);
  gate.check("cold_slice/traced", res.image, in.truth, res.solve);
  if (res.image != first)
    gate.fail("cold_slice: traced image differs from the untraced image");
  probe_slice_io(g, config, b, in.sinogram, res.solve.x, tr);
  probe_applies(top, tr, 3, /*k1=*/false, /*block=*/true);

  const std::vector<Span> sp = tr.spans();
  add_layer_metrics(r, o, sp, b, res.solve.iterations, peak);
  r.metrics["core.solve_s"] = solve.front();
  r.metrics["trace.overhead_frac"] = span_s(sp, "solve") / solve.front() - 1.0;

  // The serve, registry, disk-tier and shard layers are reached only
  // through serve::Server; probe them once the n=320 operator is released.
  b = TracedBuild{};
  probe_serve(o, r, gate, tr);
  write_spans(r, o, tr);
  return r;
}

// ---------------------------------------------------------------------------
// batch_warm: one operator built up front, then distinct pre-synthesized
// slices through BatchReconstructor in lockstep waves of kBlockWidth.

RunResult run_batch_warm(const RunOptions& o) {
  RunResult r;
  Gate gate(r);
  const auto g = geometry::make_geometry(kDramAngles, kDramN);
  const core::Config config;
  const int waves = std::max(3, static_cast<int>(std::ceil(o.seconds / 4.0)));
  const int timed = kBlockWidth * waves;
  // inputs[0] is the warm-up slice; 1..timed are measured.
  std::vector<Input> inputs;
  inputs.reserve(static_cast<std::size_t>(timed) + 1);
  for (int i = 0; i <= timed; ++i)
    inputs.push_back(synthesize(g, derive_seed(o.seed, 3, static_cast<std::uint64_t>(i))));
  reset_peak_rss();

  std::vector<double> setup;
  std::unique_ptr<core::Reconstructor> rec;
  for (int k = 0; k < (o.trace ? 1 : 3); ++k) {
    rec.reset();
    perf::WallTimer t;
    rec = std::make_unique<core::Reconstructor>(g, config);
    setup.push_back(t.seconds());
  }

  std::vector<batch::SliceResult> res;
  batch::BatchReport rep;
  {
    batch::BatchReconstructor engine(
        *rec, {.workers = 1, .queue_capacity = kBlockWidth,
               .block_width = kBlockWidth});
    // The warm-up slice goes first and alone: once the worker has taken it
    // (a width-1 wave lasting seconds), the measured slices queue up and
    // are drained as full waves instead of racing the producer.
    engine.submit(inputs[0].sinogram);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (int i = 1; i <= timed; ++i) engine.submit(inputs[static_cast<std::size_t>(i)].sinogram);
    res = engine.wait_all();
    rep = engine.report();
  }
  r.attempted = static_cast<std::int64_t>(res.size());
  for (const auto& s : res) {
    if (s.status != batch::SliceStatus::Ok) {
      ++r.failed;
      continue;
    }
    gate.check("batch_warm/" + std::to_string(s.slice), s.image,
               inputs[static_cast<std::size_t>(s.slice)].truth, s.solve);
  }
  const double peak = peak_rss_mb();
  const bool regular = rep.waves == 1 + waves && res.size() == inputs.size();
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "batch_warm: %d timed slices, waves=%d (warm-up included) "
                "avg_wave_width=%.3f queue_high_water=%d%s",
                timed, rep.waves, rep.avg_wave_width, rep.queue_high_water,
                regular ? "" : " IRREGULAR wave formation");
  r.notes.emplace_back(buf);

  // Wave k of the measured phase holds slices 1+8k .. 8+8k; each slice
  // reports an equal share of its wave's wall time.
  const double warmup_s = res.front().seconds;
  const double timed_wall = rep.wall_seconds - warmup_s;
  std::vector<double> wave_s, done_s;
  double t = 0.0;
  for (int w = 0; w < waves; ++w) {
    const double s =
        regular ? res[static_cast<std::size_t>(1 + kBlockWidth * w)].seconds * kBlockWidth
                : timed_wall / waves;
    wave_s.push_back(s);
    t += s;
    for (int i = 0; i < kBlockWidth; ++i) done_s.push_back(t);
  }

  if (!o.trace) {
    auto& m = r.metrics;
    m["setup_s"] = median(setup);
    m["time_to_image_s"] = median(setup) + rep.wall_seconds;
    m["slices_per_s"] = timed / timed_wall;
    add_latency(r, "batch_warm slice completion", done_s);
    int slo_met = 0;
    for (int i = 0; i < timed; ++i)
      if (res[static_cast<std::size_t>(i + 1)].status == batch::SliceStatus::Ok &&
          done_s[static_cast<std::size_t>(i)] <= kBatchSloS)
        ++slo_met;
    m["slo_met_frac"] = static_cast<double>(slo_met) / static_cast<double>(timed);
    m["peak_rss_mb"] = peak;
    m["psnr_db"] = gate.min_psnr();
    return r;
  }

  r.metrics["batch.avg_wave_width"] = rep.avg_wave_width;
  r.metrics["batch.waves"] = rep.waves;
  r.metrics["batch.queue_high_water"] = rep.queue_high_water;
  const double untraced_wave_s = wave_s.front();
  rec.reset();

  // Traced pass: rebuild through the public functions, then solve the
  // first measured wave with core::reconstruct_block over an operator view.
  Tracer tr(4096);
  TracedBuild b = traced_build(g, config, tr);
  const std::unique_ptr<core::MemXCTOperator> view = b.op->make_view();
  TracedOperator top(*view, tr);
  std::vector<std::span<const real>> wave;
  for (int i = 1; i <= kBlockWidth; ++i) wave.emplace_back(inputs[static_cast<std::size_t>(i)].sinogram);
  const int sv = tr.open("solve");
  top.set_parent(sv);
  std::vector<core::ReconstructionResult> traced =
      core::reconstruct_block(top, g, config, *b.sino, *b.tomo, wave);
  tr.close(sv);
  for (int i = 0; i < kBlockWidth; ++i) {
    const auto& tres = traced[static_cast<std::size_t>(i)];
    gate.check("batch_warm/traced/" + std::to_string(i + 1), tres.image,
               inputs[static_cast<std::size_t>(i + 1)].truth, tres.solve);
    if (tres.image != res[static_cast<std::size_t>(i + 1)].image)
      gate.fail("batch_warm: traced image " + std::to_string(i + 1) +
                " differs from the untraced image");
  }
  probe_slice_io(g, config, b, inputs[1].sinogram, traced[0].solve.x, tr);
  probe_applies(top, tr, 5, /*k1=*/true, /*block=*/false);

  const std::vector<Span> sp = tr.spans();
  add_layer_metrics(r, o, sp, b, traced[0].solve.iterations, peak);
  r.metrics["core.solve_s"] = untraced_wave_s;
  r.metrics["trace.overhead_frac"] = span_s(sp, "solve") / untraced_wave_s - 1.0;
  write_spans(r, o, tr);
  return r;
}

// Serve-layer probe (traced cold_slice runs): closed-loop clients over four
// geometry classes into serve::Server, with a registry budget one class
// short of holding them all and a disk tier behind it.

namespace {

struct ServeInputs {
  std::vector<geometry::Geometry> geometry;
  std::vector<core::Config> config;
  std::vector<std::vector<Input>> pool;  ///< [class][input]
};

ServeInputs make_serve_inputs(std::uint64_t seed) {
  ServeInputs in;
  for (int c = 0; c < kNumClasses; ++c) {
    const ServeClass& sc = kServeClasses[c];
    in.geometry.push_back(geometry::make_geometry(sc.n * 3 / 2, sc.n));
    core::Config cfg;
    cfg.num_shards = sc.shards;
    in.config.push_back(cfg);
    in.pool.emplace_back();
    for (int i = 0; i < kInputPool; ++i)
      in.pool.back().push_back(synthesize(
          in.geometry.back(),
          derive_seed(seed, 4, static_cast<std::uint64_t>(c * kInputPool + i))));
  }
  return in;
}

struct Request {
  RequestSpec spec;
  std::int64_t send_ns = 0, submitted_ns = 0, done_ns = 0;
  bool rejected = false;
  serve::RequestResult result;
};

void probe_serve(const RunOptions& o, RunResult& r, Gate& gate, Tracer& tr) {
  const ServeInputs in = make_serve_inputs(o.seed);
  const std::vector<RequestSpec> specs =
      make_requests(o.seed, kServeRequests,
                    zipf_weights(kNumClasses, kZipfExponent), kInputPool);
  const std::string cache_dir = o.out_dir + "/serve-disk-tier";
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);

  serve::ServerOptions opt;
  opt.workers = kServeWorkers;
  opt.omp_threads_per_worker = kServeThreadsPerWorker;
  opt.registry.byte_budget = kRegistryBudget;
  opt.registry.disk_cache_dir = cache_dir;
  auto server = std::make_unique<serve::Server>(opt);

  // Warm-up: one request per class, least popular first, so every class is
  // built once and its checked trace lands in the disk tier.
  for (int c = kNumClasses - 1; c >= 0; --c) {
    const auto cu = static_cast<std::size_t>(c);
    const serve::RequestResult res = server->wait(
        server->submit(in.geometry[cu], in.config[cu], in.pool[cu][0].sinogram));
    if (res.status != serve::RequestStatus::Ok)
      gate.fail("serve probe: warm-up request failed: " + res.error);
  }

  std::vector<Request> requests(specs.size());
  std::atomic<std::size_t> next{0};
  auto client = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < specs.size();) {
      Request& q = requests[i];
      q.spec = specs[i];
      const auto c = static_cast<std::size_t>(q.spec.cls);
      q.send_ns = now_ns();
      try {
        q.result.id = server->submit(
            in.geometry[c], in.config[c],
            in.pool[c][static_cast<std::size_t>(q.spec.input)].sinogram);
      } catch (const std::exception&) {
        q.rejected = true;  // typed overload rejection or refused input
      }
      q.submitted_ns = now_ns();
      if (!q.rejected) {
        try {
          q.result = server->wait(q.result.id);
        } catch (const std::exception& e) {
          q.result.status = serve::RequestStatus::Failed;
          q.result.error = e.what();
        }
      }
      q.done_ns = now_ns();
    }
  };
  const serve::ServerMetrics before = server->snapshot();
  std::vector<std::thread> clients;
  for (int w = 0; w < kServeWorkers; ++w) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  const serve::ServerMetrics after = server->snapshot();
  server.reset();

  // Served images must equal a direct unsharded solve bitwise (sharded and
  // unsharded operators, any worker count, share one arithmetic).
  std::vector<std::vector<std::vector<real>>> reference(kNumClasses);
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cu = static_cast<std::size_t>(c);
    core::Config cfg = in.config[cu];
    cfg.num_shards = 1;
    const core::Reconstructor rec(in.geometry[cu], cfg);
    for (const Input& input : in.pool[cu])
      reference[cu].push_back(rec.reconstruct(input.sinogram).image);
  }

  std::vector<double> latency_ms, queue_ms, setup_ms, solve_ms;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& q = requests[i];
    if (q.rejected || q.result.status != serve::RequestStatus::Ok) {
      gate.fail("serve probe: request " + std::to_string(i) + " failed: " +
                q.result.error);
      continue;
    }
    const auto c = static_cast<std::size_t>(q.spec.cls);
    const auto k = static_cast<std::size_t>(q.spec.input);
    gate.check("serve/" + std::to_string(i), q.result.image,
               in.pool[c][k].truth, q.result.solve);
    if (q.result.image != reference[c][k])
      gate.fail("serve probe: request " + std::to_string(i) +
                " differs from the direct solve");
    latency_ms.push_back(static_cast<double>(q.done_ns - q.send_ns) * 1e-6);
    queue_ms.push_back(q.result.queue_seconds * 1e3);
    solve_ms.push_back(q.result.solve.seconds * 1e3);
    if (q.result.setup_seconds > 0.0)
      setup_ms.push_back(q.result.setup_seconds * 1e3);
    const int span = tr.add("request", q.send_ns, q.done_ns, -1,
                            static_cast<std::int64_t>(i),
                            {q.result.queue_seconds, q.result.setup_seconds,
                             q.result.solve.seconds});
    tr.add("submit", q.send_ns, q.submitted_ns, span,
           static_cast<std::int64_t>(i));
    tr.add("wait", q.submitted_ns, q.done_ns, span,
           static_cast<std::int64_t>(i));
  }
  if (latency_ms.empty()) return;

  const serve::RegistryStats& ra = after.registry;
  const serve::RegistryStats& rb = before.registry;
  const std::int64_t hits = ra.hits - rb.hits, misses = ra.misses - rb.misses;
  const Summary lat(latency_ms), queue(queue_ms);
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "serve probe: %zu requests, latency p50 %.3f ms p95 %.3f ms "
                "max %.3f ms; registry hits=%lld misses=%lld",
                lat.count, lat.p50, lat.p95, lat.max,
                static_cast<long long>(hits), static_cast<long long>(misses));
  r.notes.emplace_back(buf);

  auto& m = r.metrics;
  m["serve.queue_wait_ms_p50"] = queue.p50;
  m["serve.queue_wait_ms_p95"] = queue.p95;
  m["serve.miss_setup_ms_p50"] = setup_ms.empty() ? 0.0 : median(setup_ms);
  m["serve.solve_ms_p50"] = median(solve_ms);
  m["serve.registry_hit_rate"] =
      static_cast<double>(hits) /
      static_cast<double>(std::max<std::int64_t>(1, hits + misses));
  m["serve.builds"] = static_cast<double>(ra.builds - rb.builds);
  m["serve.evictions"] = static_cast<double>(ra.evictions - rb.evictions);
  m["serve.disk_tier_hits"] =
      static_cast<double>(ra.disk_tier_hits - rb.disk_tier_hits);
  m["serve.rejected"] = static_cast<double>(after.rejected());
  m["shard.comm_s"] = after.shard.comm_seconds - before.shard.comm_seconds;
  m["shard.compute_s"] =
      after.shard.compute_seconds - before.shard.compute_seconds;

  // Load the largest class's checked trace from the disk tier, the way a
  // rebuild after eviction does.
  const std::string tag = "-i" + std::to_string(kServeClasses[0].n) + "-";
  for (const auto& e : std::filesystem::directory_iterator(cache_dir)) {
    if (e.path().filename().string().find(tag) == std::string::npos ||
        e.path().extension() != ".csr")
      continue;
    perf::WallTimer t;
    const sparse::CsrMatrix a = resil::load_csr_checked(e.path().string());
    m["resil.cache_load_s"] = t.seconds();
    if (a.nnz() <= 0) gate.fail("serve probe: empty disk-tier matrix");
  }
  if (m.find("resil.cache_load_s") == m.end())
    gate.fail("serve probe: no disk-tier file for the largest class");
  std::filesystem::remove_all(cache_dir);
}

}  // namespace

// ---------------------------------------------------------------------------

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

}  // namespace xctbench
