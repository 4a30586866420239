// Precomputed sparse exchange plans for the sharded operator.
//
// The sharded apply is owner-computes with halo duplication: every shard
// owns a contiguous output row range and needs, as input, exactly the
// (sorted, deduplicated) set of global input indices its local rows touch —
// its *footprint*. Entries a shard owns itself are gathered locally; the
// rest arrive over a sparse alltoallv as exact copies (C in A = R·C·A_p,
// run in the duplication direction). Because only copies cross shard
// boundaries — never floating-point partial sums — the apply is bitwise
// identical to the serial kernel for any shard count.
//
// Plans are built once per operator and replayed every apply. Each plan is
// split per pipeline tile (the overlap unit: exchange tile t+1 while
// computing tile t) and, within a tile, into one or two *rounds*:
//
//   flat (group_size <= 1): one round, owner -> consumer directly.
//   two-level (group_size > 1, Petascale XCT's hierarchical reduction tree
//   run in reverse): round 1 sends each destination *group* the union of
//   its members' needs, addressed to the group's proxy shard (deduplicating
//   inter-group traffic); round 2 has proxies forward per-member copies
//   from their staging buffers. Intra-group spread happens in round 2 only.
//
// Everything in a plan is a pure function of (row partition, matrix
// structure, tiles, group_size) with all loops in ascending shard/index
// order, so rebuilding from the same traced matrix yields a byte-identical
// plan — `fingerprint()` serializes a plan canonically so tests can assert
// exactly that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/partition.hpp"

namespace memxct::shard {

/// What the sharded operator's forward exchange C moves (A = R·C·A_p).
/// The backward direction is identical in both modes: owners duplicate
/// sinogram values to every shard whose tomogram rows touch them.
enum class Exchange {
  /// Owner-computes with halo duplication: input copies travel, every
  /// accumulation stays inside one shard, so any P is bitwise equal to P=1.
  Duplicate,
  /// The paper's Section 3.4.3 split: each shard applies its column block
  /// A_p to the tomogram slice it owns, the partial sinogram rows travel
  /// over the backward plan run in reverse, and owners sum them in
  /// source-ascending order (R). Moves nnz(C) = O(MN·sqrt(P)) elements.
  Reduce,
};

/// One alltoallv of an exchange schedule, fully precomputed.
struct Round {
  /// Pack sources: staging-buffer positions (round 2 of a two-level plan)
  /// instead of global input indices (round 1 / flat).
  bool from_staging = false;
  /// Receive disposition: the recv buffer *is* the proxy staging buffer
  /// (round 1 of a two-level plan) instead of scattering into the local
  /// halo vector via scatter_pos.
  bool to_staging = false;
  /// [src shard]: what to copy into the send buffer, grouped by destination
  /// per send_displ. Global input indices, or staging positions when
  /// from_staging.
  std::vector<std::vector<idx_t>> pack_index;
  /// [src shard]: destination group boundaries, size num_shards+1 — handed
  /// to SimComm::alltoallv unchanged.
  std::vector<std::vector<nnz_t>> send_displ;
  /// [dst shard]: local-footprint position of each received element in
  /// arrival order (source ascending, then send order). Empty when
  /// to_staging.
  std::vector<std::vector<idx_t>> scatter_pos;
};

/// Complete exchange schedule for one apply direction.
struct ExchangePlan {
  int num_shards = 1;
  int group_size = 1;
  int tiles = 1;
  int rounds_per_tile = 1;  ///< 1 flat, 2 two-level.
  /// Tile-major: rounds[t * rounds_per_tile + r].
  std::vector<Round> rounds;
  /// [shard]: owned global input indices each shard needs — gathered
  /// locally before tile 0, never sent over the network.
  std::vector<std::vector<idx_t>> self_index;
  /// [shard]: their positions in the shard's footprint vector.
  std::vector<std::vector<idx_t>> self_pos;

  [[nodiscard]] const Round& round(int tile, int r) const {
    return rounds[static_cast<std::size_t>(tile) * rounds_per_tile +
                  static_cast<std::size_t>(r)];
  }

  /// Total elements moved through exchange rounds per apply (both rounds of
  /// a two-level plan, including self-destined copies SimComm leaves
  /// uncharged).
  [[nodiscard]] std::int64_t halo_elements() const;

  /// Approximate resident bytes of the plan's index arrays.
  [[nodiscard]] std::int64_t bytes() const;

  /// Canonical decimal serialization of every field. Two plans are
  /// byte-identical iff their fingerprints match — the determinism test
  /// compares these across independent rebuilds.
  [[nodiscard]] std::string fingerprint() const;
};

/// Builds the exchange schedule that delivers, to each shard, every
/// non-owned entry of its footprint before the pipeline tile that first
/// needs it.
///
///   input_owner   ownership of the *input* vector (column domain).
///   footprint     [shard] sorted deduplicated global input indices used by
///                 the shard's local rows.
///   first_tile    [shard][i] first pipeline tile whose local rows touch
///                 footprint[shard][i]; entries must be < tiles.
///   tiles         pipeline tile count (>= 1).
///   group_size    <= 1 for flat; otherwise shards are grouped into
///                 ceil(P/group_size) consecutive groups with the first
///                 member as proxy.
[[nodiscard]] ExchangePlan build_exchange_plan(
    const dist::DomainPartition& input_owner,
    const std::vector<std::vector<idx_t>>& footprint,
    const std::vector<std::vector<int>>& first_tile, int tiles,
    int group_size);

}  // namespace memxct::shard
