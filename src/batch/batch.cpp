#include "batch/batch.hpp"

#include <omp.h>

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "solve/block.hpp"
#include "sparse/spmm.hpp"

namespace memxct::batch {

const char* to_string(SliceStatus status) noexcept {
  switch (status) {
    case SliceStatus::Ok:
      return "ok";
    case SliceStatus::IngestRejected:
      return "ingest-rejected";
    case SliceStatus::Diverged:
      return "diverged";
    case SliceStatus::Failed:
      return "failed";
  }
  return "?";
}

std::string BatchReport::summary() const {
  std::ostringstream os;
  os << slices << " slices on " << workers << " workers in " << wall_seconds
     << " s (" << slices_per_second << " slices/s, queue high-water "
     << queue_high_water << ")";
  if (block_width > 1)
    os << "; block width " << block_width << ", " << waves
       << " waves (avg width " << avg_wave_width << "), "
       << matrix_bytes_per_slice * 1e-6
       << " MB matrix traffic/slice/iteration";
  if (ingest_rejected + diverged + failed > 0)
    os << "; " << ingest_rejected << " ingest-rejected, " << diverged
       << " diverged, " << failed << " failed";
  return os.str();
}

SliceResult run_isolated_slice(const solve::LinearOperator& op,
                               const geometry::Geometry& geometry,
                               const core::Config& config,
                               const hilbert::Ordering& sino_order,
                               const hilbert::Ordering& tomo_order,
                               std::span<const real> sinogram,
                               core::SliceWorkspace* workspace,
                               const solve::CancelToken* cancel,
                               bool keep_image, solve::ProgressSink* progress,
                               const core::SolveExtras* extras) {
  SliceResult res;
  perf::WallTimer timer;
  try {
    core::ReconstructionResult r = core::reconstruct_slice(
        op, geometry, config, sino_order, tomo_order, sinogram, workspace,
        cancel, progress, extras);
    res.status = r.solve.diverged ? SliceStatus::Diverged : SliceStatus::Ok;
    res.solve = std::move(r.solve);
    res.ingest = std::move(r.ingest);
    if (keep_image) res.image = std::move(r.image);
  } catch (const InvalidArgument& e) {
    // The ingest gate throws InvalidArgument under IngestPolicy::Reject;
    // the slice is reported rejected, the caller's pipeline continues.
    res.status = SliceStatus::IngestRejected;
    res.error = e.what();
  } catch (const std::exception& e) {
    res.status = SliceStatus::Failed;
    res.error = e.what();
  }
  res.seconds = timer.seconds();
  return res;
}

BatchReconstructor::BatchReconstructor(const core::Reconstructor& recon,
                                       BatchOptions options)
    : recon_(recon),
      config_(recon.config()),
      options_(options),
      queue_(options.queue_capacity > 0
                 ? options.queue_capacity
                 : 2 * std::max(1, options.workers)) {
  if (options_.workers < 1)
    throw InvalidArgument("batch: workers must be >= 1");
  if (options_.block_width < 1 ||
      options_.block_width > sparse::kMaxBlockWidth)
    throw InvalidArgument("batch: block_width must be in [1, " +
                          std::to_string(sparse::kMaxBlockWidth) + "]");
  if (options_.block_width > 1 &&
      config_.solver != core::SolverKind::CGLS)
    throw InvalidArgument(
        "batch: block_width > 1 requires the CGLS solver (the lockstep "
        "block path only implements the CGLS recursion)");
  // One shared checkpoint file written by K concurrent slices would corrupt
  // and make results submission-order dependent; per-slice in-memory
  // rollback (divergence recovery) is unaffected.
  config_.checkpoint_path.clear();
  config_.block_width = options_.block_width;  // keep the opkey honest
  threads_per_worker_ =
      options_.omp_threads_per_worker > 0
          ? options_.omp_threads_per_worker
          : std::max(1, omp_get_max_threads() / options_.workers);

  ops_.reserve(static_cast<std::size_t>(options_.workers));
  const bool sharded = core::is_sharded(config_);
  for (int w = 0; w < options_.workers; ++w)
    ops_.push_back(sharded ? std::unique_ptr<solve::LinearOperator>(
                                 recon_.shard_op()->make_view())
                           : std::unique_ptr<solve::LinearOperator>(
                                 recon_.serial_op()->make_view()));

  threads_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

BatchReconstructor::~BatchReconstructor() {
  queue_.close();  // pending jobs drain, then workers exit
  for (auto& t : threads_) t.join();
}

int BatchReconstructor::submit(std::span<const real> sinogram) {
  if (static_cast<std::int64_t>(sinogram.size()) !=
      recon_.geometry().sinogram_extent().size())
    throw InvalidArgument("batch: sinogram size " +
                          std::to_string(sinogram.size()) +
                          " does not match the geometry");
  Job job;
  job.data.assign(sinogram.begin(), sinogram.end());
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (submitted_ == 0) round_timer_.reset();
    job.slice = submitted_++;
  }
  const int ticket = job.slice;
  // Backpressure: push blocks while the bounded queue is full. Tickets stay
  // in queue order because submit() is single-producer (class contract).
  queue_.push(std::move(job));
  return ticket;
}

std::vector<SliceResult> BatchReconstructor::wait_all() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [this] { return completed_ == submitted_; });

  BatchReport rep;
  rep.slices = submitted_;
  rep.workers = workers();
  rep.wall_seconds = submitted_ > 0 ? round_timer_.seconds() : 0.0;
  rep.slices_per_second =
      rep.wall_seconds > 0.0 ? rep.slices / rep.wall_seconds : 0.0;
  rep.queue_high_water = queue_.high_water();
  rep.preprocess_seconds = recon_.preprocess_report().total_seconds;
  rep.block_width = options_.block_width;
  rep.waves = waves_;
  rep.avg_wave_width =
      waves_ > 0 ? static_cast<double>(submitted_) / waves_ : 0.0;
  if (recon_.serial_op() != nullptr) {
    const perf::KernelWork fwd = recon_.serial_op()->forward_work();
    const perf::KernelWork bwd = recon_.serial_op()->transpose_work();
    rep.matrix_bytes_per_slice =
        fwd.regular_bytes_at_width(options_.block_width) +
        bwd.regular_bytes_at_width(options_.block_width);
  }
  for (const SliceResult& r : results_) {
    switch (r.status) {
      case SliceStatus::Ok:
        ++rep.ok;
        break;
      case SliceStatus::IngestRejected:
        ++rep.ingest_rejected;
        break;
      case SliceStatus::Diverged:
        ++rep.diverged;
        break;
      case SliceStatus::Failed:
        ++rep.failed;
        break;
    }
    rep.slice_seconds_sum += r.seconds;
    rep.solve_seconds_sum += r.solve.seconds;
  }
  report_ = rep;

  std::vector<SliceResult> out = std::move(results_);
  results_.clear();
  submitted_ = 0;
  completed_ = 0;
  waves_ = 0;
  queue_.reset_high_water();
  lk.unlock();

  std::sort(out.begin(), out.end(),
            [](const SliceResult& a, const SliceResult& b) {
              return a.slice < b.slice;
            });
  return out;
}

void BatchReconstructor::worker_main(int worker_id) {
  // The num-threads ICV is per-thread in OpenMP: this pins the size of every
  // parallel region the solvers open from this worker, keeping K workers at
  // the same total subscription as one full-width solve.
  omp_set_num_threads(threads_per_worker_);
  const solve::LinearOperator& op = *ops_[static_cast<std::size_t>(worker_id)];
  if (options_.block_width > 1)
    worker_block_loop(op);
  else
    worker_slice_loop(op);
}

void BatchReconstructor::worker_slice_loop(const solve::LinearOperator& op) {
  core::SliceWorkspace slice_ws;  // persistent: no steady-state allocation

  while (auto job = queue_.pop()) {
    SliceResult res = run_isolated_slice(
        op, recon_.geometry(), config_, recon_.sinogram_ordering(),
        recon_.tomogram_ordering(), job->data, &slice_ws,
        /*cancel=*/nullptr, options_.keep_images);
    res.slice = job->slice;

    {
      std::lock_guard<std::mutex> lk(mu_);
      results_.push_back(std::move(res));
      ++completed_;
    }
    cv_done_.notify_all();
  }
}

void BatchReconstructor::worker_block_loop(const solve::LinearOperator& op) {
  core::SliceWorkspace slice_ws;  // persistent: no steady-state allocation
  const auto m =
      static_cast<std::size_t>(recon_.geometry().sinogram_extent().size());
  const auto n =
      static_cast<std::size_t>(recon_.geometry().tomogram_extent().size());
  AlignedVector<real> y_slab(m * static_cast<std::size_t>(options_.block_width));

  // Waves are greedy (pop_up_to never waits to fill): a trickle of
  // submissions degrades toward width-1 behaviour instead of stalling.
  while (true) {
    std::vector<Job> jobs = queue_.pop_up_to(options_.block_width);
    if (jobs.empty()) break;  // closed and drained
    perf::WallTimer wave_timer;

    // Per-slice ingest with per-slice fault isolation, mirroring
    // run_isolated_slice's classification: a bad slice becomes a status on
    // that slice; the survivors still solve together.
    std::vector<SliceResult> wave(jobs.size());
    std::vector<std::size_t> lanes;  // job indices that reached the solver
    lanes.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      wave[j].slice = jobs[j].slice;
      try {
        wave[j].ingest = core::ingest_and_order(
            recon_.geometry(), config_, recon_.sinogram_ordering(),
            jobs[j].data, slice_ws);
        std::copy(slice_ws.ordered.begin(), slice_ws.ordered.end(),
                  y_slab.begin() + static_cast<std::ptrdiff_t>(lanes.size() * m));
        lanes.push_back(j);
      } catch (const InvalidArgument& e) {
        wave[j].status = SliceStatus::IngestRejected;
        wave[j].error = e.what();
      } catch (const std::exception& e) {
        wave[j].status = SliceStatus::Failed;
        wave[j].error = e.what();
      }
    }

    if (!lanes.empty()) {
      solve::BlockCglsOptions opt;
      opt.max_iterations = config_.iterations;
      opt.early_stop = config_.early_stop;
      opt.tikhonov_lambda = config_.tikhonov_lambda;
      try {
        solve::BlockSolveResult solved = solve::cgls_block(
            op, std::span<const real>(y_slab).first(lanes.size() * m),
            static_cast<idx_t>(lanes.size()), opt);
        for (std::size_t l = 0; l < lanes.size(); ++l) {
          SliceResult& res = wave[lanes[l]];
          if (options_.keep_images) {
            res.image.resize(n);
            core::depermute_image(recon_.tomogram_ordering(),
                                  solved.slices[l].x, res.image);
          }
          res.solve = std::move(solved.slices[l]);
          // The lanes solved together; report each slice's amortized share
          // so batch-level time sums stay meaningful.
          res.solve.seconds = solved.seconds / static_cast<double>(lanes.size());
          res.status = res.solve.diverged ? SliceStatus::Diverged
                                          : SliceStatus::Ok;
        }
      } catch (const std::exception& e) {
        for (const std::size_t l : lanes) {
          wave[l].status = SliceStatus::Failed;
          wave[l].error = e.what();
        }
      }
    }

    const double share =
        wave_timer.seconds() / static_cast<double>(jobs.size());
    for (SliceResult& res : wave) res.seconds = share;

    {
      std::lock_guard<std::mutex> lk(mu_);
      ++waves_;
      for (SliceResult& res : wave) results_.push_back(std::move(res));
      completed_ += static_cast<int>(wave.size());
    }
    cv_done_.notify_all();
  }
}

}  // namespace memxct::batch
