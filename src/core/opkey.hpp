// Geometry keys: canonical identity of a preprocessed operator.
//
// The memoized operator (orderings + traced matrix + kernel structures +
// static plans) is fully determined by the acquisition geometry and the
// operator-affecting Config fields — ordering scheme, tile size, kernel
// flavour, buffer sizes, ELL block size, schedule, block width, value
// precision. Solver choice, iteration budget, ingest policy, and checkpoint
// paths do NOT change the operator, so requests that differ only in those
// fields share one cached operator. The serve-layer OperatorRegistry keys
// its LRU cache on the canonical text produced here; the hash is a compact
// display/metric id.
#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "geometry/geometry.hpp"

namespace memxct::core {

/// Identity of one preprocessed operator.
struct OperatorKey {
  /// Canonical serialization of every operator-affecting field. Used as the
  /// cache-map key (exact, collision-free) and as the disk-cache file stem.
  std::string text;
  /// FNV-1a hash of `text` — a compact id for logs and metrics.
  std::uint64_t hash = 0;
};

/// Builds the key from the geometry plus the operator-affecting subset of
/// the config. Two (geometry, config) pairs yield equal keys iff they
/// produce bitwise-identical preprocessed operators.
[[nodiscard]] OperatorKey operator_key(const geometry::Geometry& geometry,
                                       const Config& config);

/// Normalizes a request config down to the fields that shape the operator:
/// ordering, tile size, kernel, buffer sizes, ELL block size, schedule,
/// block width, value precision, and the shard layout (count, group size,
/// pipeline tiles, exchange mode).
/// Everything else (solver, iterations, ingest, checkpoints, cache dir,
/// machine model) is reset to defaults, so registry entries built from the
/// normalized config are shared across requests that disagree only on
/// solve-time options.
[[nodiscard]] Config operator_config(const Config& config);

}  // namespace memxct::core
