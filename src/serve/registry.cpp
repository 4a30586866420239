#include "serve/registry.hpp"

#include <omp.h>

#include <utility>

#include "common/error.hpp"
#include "perf/timer.hpp"

namespace memxct::serve {

OperatorRegistry::OperatorRegistry(RegistryOptions options)
    : options_(std::move(options)),
      breaker_(options_.breaker),
      plan_slots_(omp_get_max_threads()) {}

OperatorRegistry::Lease OperatorRegistry::acquire(
    const geometry::Geometry& geometry, const core::Config& config) {
  Lease lease;
  lease.key = core::operator_key(geometry, config);
  const std::string key = lease.key.text;

  {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (auto it = index_.find(key); it != index_.end()) {
        // Memory-tier hit: touch to MRU and share the bundle.
        lru_.splice(lru_.end(), lru_, it->second);
        ++stats_.hits;
        lease.recon = it->second->recon;
        lease.hit = true;
        return lease;
      }
      if (building_.count(key) == 0) break;  // this thread becomes builder
      // Single-flight join: another thread is preprocessing this key; wait
      // for it instead of duplicating the build, then re-check the map.
      ++stats_.single_flight_waits;
      build_cv_.wait(lk);
    }
    building_.insert(key);
  }

  // Build outside the lock: preprocessing can take seconds, and other keys
  // must keep hitting meanwhile. The disk tier is consulted only while the
  // breaker allows it; an open breaker routes this build straight to
  // re-trace (no read, no write) until a half-open probe heals it.
  const bool disk_tier = !options_.disk_cache_dir.empty();
  const bool cache_allowed = disk_tier && breaker_.allow_request();
  std::shared_ptr<const core::Reconstructor> recon;
  perf::WallTimer build_timer;
  try {
    core::Config build_config = core::operator_config(config);
    if (cache_allowed)
      build_config.cache_dir = options_.disk_cache_dir;  // second tier
    if (options_.pre_build_hook) options_.pre_build_hook(key);
    // Pin the plan-slot count to the registry's canonical value so the
    // static plans (and hence the bitwise output) are independent of which
    // worker thread happens to run the build.
    const int caller_threads = omp_get_max_threads();
    omp_set_num_threads(plan_slots_);
    try {
      recon = std::make_shared<core::Reconstructor>(geometry, build_config);
    } catch (...) {
      omp_set_num_threads(caller_threads);
      throw;
    }
    omp_set_num_threads(caller_threads);
  } catch (...) {
    // A failed build that held disk-tier access counts against the breaker
    // (and, crucially, resolves a half-open probe so the breaker can never
    // wedge in HalfOpen when the probe build dies).
    if (cache_allowed) breaker_.record_failure();
    std::lock_guard<std::mutex> lk(mu_);
    building_.erase(key);
    build_cv_.notify_all();
    throw;
  }
  lease.build_seconds = build_timer.seconds();
  lease.recon = recon;
  lease.disk_hit = recon->preprocess_report().cache_hit;
  const bool cache_corrupt = recon->preprocess_report().cache_corrupt;
  if (cache_allowed) {
    // Corrupt load = tier failure; a clean build through the tier (hit,
    // miss-and-rewrite) = tier success. This is also what closes the
    // breaker after a successful half-open probe.
    if (cache_corrupt)
      breaker_.record_failure();
    else
      breaker_.record_success();
  }
  MEMXCT_CHECK_MSG(
      recon->serial_op() != nullptr || recon->shard_op() != nullptr,
      "registry build produced no viewable operator");
  // Sharded operators are accounted at the sum of their per-rank bytes —
  // the registry budget caps total resident memory across the fleet.
  const std::int64_t bytes = recon->serial_op() != nullptr
                                 ? recon->serial_op()->bytes()
                                 : recon->shard_op()->bytes();

  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.misses;
    ++stats_.builds;
    if (lease.disk_hit) ++stats_.disk_tier_hits;
    if (cache_corrupt) ++stats_.cache_corrupt_loads;
    if (disk_tier && !cache_allowed) ++stats_.breaker_bypassed_builds;

    const std::int64_t budget = options_.byte_budget;
    if (budget > 0 && bytes > budget) {
      // Larger than the whole budget: serve it, never retain it — the
      // budget is a hard invariant, not a soft target.
      ++stats_.uncacheable;
    } else {
      index_[key] = lru_.insert(lru_.end(), Entry{key, recon, bytes});
      stats_.resident_bytes += bytes;
      ++stats_.resident_operators;
      // Evict least-recently-used entries (never the one just inserted)
      // until the resident total fits the budget again.
      while (budget > 0 && stats_.resident_bytes > budget && lru_.size() > 1) {
        Entry& victim = lru_.front();
        stats_.resident_bytes -= victim.bytes;
        stats_.evicted_bytes += victim.bytes;
        ++stats_.evictions;
        --stats_.resident_operators;
        index_.erase(victim.key_text);
        lru_.pop_front();  // leases keep the bundle alive if still in use
      }
    }
    if (stats_.resident_bytes > stats_.peak_resident_bytes)
      stats_.peak_resident_bytes = stats_.resident_bytes;
    building_.erase(key);
    build_cv_.notify_all();
  }
  return lease;
}

RegistryStats OperatorRegistry::stats() const {
  RegistryStats s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s = stats_;
  }
  const CircuitBreaker::Stats b = breaker_.stats();
  s.breaker_opens = b.opens;
  s.breaker_probes = b.probes;
  s.breaker_state = breaker_.state();
  return s;
}

std::vector<std::string> OperatorRegistry::resident_keys() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const Entry& e : lru_) keys.push_back(e.key_text);
  return keys;
}

}  // namespace memxct::serve
