#include "core/opkey.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace memxct::core {

namespace {

/// FNV-1a over the canonical text: stable across platforms and runs (no
/// std::hash, whose value is implementation-defined).
std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

OperatorKey operator_key(const geometry::Geometry& geometry,
                         const Config& config) {
  // angle_span is a double; %.17g round-trips it exactly so two spans that
  // differ in the last ulp key different operators (they trace differently).
  char span[64];
  std::snprintf(span, sizeof(span), "%.17g", geometry.angle_span);

  std::ostringstream os;
  os << "a" << geometry.num_angles << "-c" << geometry.num_channels << "-i"
     << geometry.image_size << "-s" << span << "-o"
     << hilbert::to_string(config.ordering) << "-t" << config.tile_size
     << "-k" << static_cast<int>(config.kernel) << "-p"
     << config.buffer.partsize << "-b" << config.buffer.buffsize << "-e"
     << config.ell_block_rows << "-sch" << static_cast<int>(config.schedule)
     << "-w" << config.block_width << "-v"
     << sparse::to_string(config.precision);
  // Sharding changes the built structure (row slices, exchange plans), so
  // it is part of the operator identity — but only when active, keeping
  // every pre-sharding key text (and disk-cache stem) unchanged. The
  // exchange tag likewise appears only for Reduce, so Duplicate keys keep
  // their pre-Reduce text.
  if (is_sharded(config)) {
    os << "-sh" << config.num_shards << "-g" << config.shard_group_size
       << "-pt" << config.shard_pipeline_tiles;
    if (config.shard_exchange == shard::Exchange::Reduce) os << "-xr";
  }

  OperatorKey key;
  key.text = os.str();
  key.hash = fnv1a(key.text);
  return key;
}

Config operator_config(const Config& config) {
  Config norm;  // defaults for every solve-time field
  norm.ordering = config.ordering;
  norm.tile_size = config.tile_size;
  norm.kernel = config.kernel;
  norm.buffer = config.buffer;
  norm.ell_block_rows = config.ell_block_rows;
  norm.schedule = config.schedule;
  norm.block_width = config.block_width;
  norm.precision = config.precision;
  norm.num_shards = config.num_shards;
  norm.shard_group_size = config.shard_group_size;
  norm.shard_pipeline_tiles = config.shard_pipeline_tiles;
  norm.shard_exchange = config.shard_exchange;
  return norm;
}

}  // namespace memxct::core
