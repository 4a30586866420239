// Sharded forward/backprojection: the dual-domain factorization A = R·C·A_p
// (paper Section 3.4.3, extended per Petascale XCT) behind the serving
// stack's LinearOperator interface.
//
// P simulated shards each own one contiguous sinogram row range and one
// contiguous tomogram row range. Backprojection is owner-computes: a shard
// computes every tomogram row it owns over a column-compacted row slice of
// A^T, and the exchange C moves exact *input copies* of the sinogram values
// it touches (halo duplication, the paper's backprojection strategy). The
// forward direction runs in one of two exchange modes (shard::Exchange):
//
//   Duplicate  owner-computes again, over row slices of A, with tomogram
//              copies moving. Every floating-point accumulation happens
//              wholly inside one shard, in the serial kernel's order — which
//              buys the serving stack bitwise parity with the P=1 operator
//              for any P, kernel family, and SpMM width.
//   Reduce     the paper's split: shard p applies its column block A_p to
//              its own tomogram slice, producing partial sums for every
//              sinogram row its slice touches (exactly its backward
//              footprint); the partials travel over the backward plan run
//              in reverse and owners reduce them in source-ascending order.
//              Deterministic, but not bitwise equal to P=1 (the reduction
//              reassociates). This is what Fig 7/11 and Tables 1/5 measure.
//
// Shard and pipeline-tile cuts snap to the local kernel's row-partition
// size (shard/partition.hpp), so the buffered kernel's stage structure —
// hence its per-row accumulation grouping — is identical to the serial
// build; Reduce-mode callers may pass the paper's tile-snapped partitions
// (dist::partition_by_tiles) instead. Exchanges are precomputed plans
// (shard/plan.hpp), optionally hierarchical (group proxies deduplicate
// inter-group halo traffic — the two-level tree of Petascale XCT), and the
// duplication applies are pipelined: the exchange for tile t+1 is posted
// before tile t's compute, with the modeled comm/compute overlap reported
// in ShardApplyStats. Network bytes and messages are exact (dist::SimComm);
// wall time for the network is the α–β model of the target machine.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "dist/partition.hpp"
#include "dist/simmpi.hpp"
#include "perf/machine_model.hpp"
#include "shard/plan.hpp"
#include "solve/operator.hpp"
#include "solve/solver.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"

namespace memxct::shard {

/// Local kernel each shard runs on its row slices. shard/ keeps its own
/// enum so it never depends on core/ (core constructs ShardedOperator, not
/// the other way around).
enum class LocalKernel {
  BaselineCsr,  ///< Listing 2 per shard.
  Buffered,     ///< Listing 3 multi-stage buffering per shard.
};

/// Per-view accumulated apply statistics. Compute times are max-over-shards
/// per tile (the SPMD wall time); comm is the modeled α–β exchange time;
/// overlap_saved is the portion of comm hidden behind compute by the
/// tile pipeline (min(comm of prefetched tile, compute of current tile)).
/// In Reduce mode compute is the A_p / A_p^T time and reduce the R time —
/// the Fig 11 breakdown.
struct ShardApplyStats {
  std::int64_t applies = 0;
  double compute_seconds = 0.0;      ///< Max-over-shards local kernel time.
  double compute_sum_seconds = 0.0;  ///< Total single-core kernel work.
  /// MEASURED exchange time: the timed per-round copy blocks of the actual
  /// in-process data movement (SimComm's measured tier).
  double comm_seconds = 0.0;
  /// The same exchanges' α–β model cost on the configured machine, kept
  /// alongside the measurement so model-vs-measured skew is observable
  /// (bench_shard_scaling reports it).
  double comm_modeled_seconds = 0.0;
  double overlap_saved_seconds = 0.0;
  /// Max-over-owners time summing arrived partials (Reduce forward only).
  double reduce_seconds = 0.0;
  std::int64_t cancel_polls = 0;
  std::int64_t depipelined_tiles = 0;  ///< Prefetches skipped after a
                                       ///< cancel/deadline poll fired.

  /// Wall seconds: compute and reduce plus the comm the pipeline failed to
  /// hide.
  [[nodiscard]] double total() const noexcept {
    return compute_seconds + comm_seconds - overlap_saved_seconds +
           reduce_seconds;
  }
  void reset() noexcept { *this = ShardApplyStats{}; }
};

class ShardedOperator final : public solve::LinearOperator {
 public:
  struct Options {
    int num_shards = 2;
    LocalKernel kernel = LocalKernel::Buffered;
    sparse::BufferConfig buffer;
    /// Value storage of the buffered local blocks (core::Config::precision);
    /// reduced precision needs LocalKernel::Buffered.
    sparse::ValueStorage precision = sparse::ValueStorage::Fp32;
    /// > 1 enables the hierarchical two-level exchange with groups of this
    /// many consecutive shards (first member is the group proxy).
    int group_size = 1;
    /// Pipeline tiles per apply; 0 picks min(4, max shard partition count).
    int pipeline_tiles = 0;
    perf::MachineSpec machine = perf::machine("Theta");
    Exchange exchange = Exchange::Duplicate;
  };

  /// Builds per-shard row slices of `a` (and of its transpose) plus the
  /// exchange plans over kernel-aligned partitions. `a` is the full
  /// operator in ordered index space — the same matrix the serial
  /// MemXCTOperator memoizes.
  ShardedOperator(const sparse::CsrMatrix& a, const Options& opt);

  /// Same over explicit sinogram/tomogram partitions (the paper's
  /// tile-snapped cuts); P is theirs and opt.num_shards is ignored. Throws
  /// InvariantError when their part counts or extents do not match `a`.
  ShardedOperator(const sparse::CsrMatrix& a, const dist::DomainPartition& sino,
                  const dist::DomainPartition& tomo, const Options& opt);

  [[nodiscard]] idx_t num_rows() const override { return num_rows_; }
  [[nodiscard]] idx_t num_cols() const override { return num_cols_; }

  void apply(std::span<const real> x, std::span<real> y) const override;
  void apply_transpose(std::span<const real> y,
                       std::span<real> x) const override;
  void apply_block(std::span<const real> x, std::span<real> y,
                   idx_t k) const override;
  void apply_transpose_block(std::span<const real> y, std::span<real> x,
                             idx_t k) const override;

  /// Shares the immutable shard structure (matrices, plans); the view gets
  /// fresh communication buffers and statistics, so worker threads can
  /// apply concurrently.
  [[nodiscard]] std::unique_ptr<ShardedOperator> make_view() const;

  [[nodiscard]] int num_shards() const noexcept;
  [[nodiscard]] int pipeline_tiles() const noexcept;
  [[nodiscard]] Exchange exchange() const noexcept;

  /// Partial sinogram rows summed over shards: the backward footprints,
  /// which are also the rows of the A_p blocks — nnz(C) = nnz(R), Table 1's
  /// O(MN·sqrt(P)) quantity.
  [[nodiscard]] std::int64_t total_partial_rows() const;

  /// Total resident bytes across shards (matrices + plans) — the registry's
  /// eviction currency.
  [[nodiscard]] std::int64_t bytes() const;
  /// One shard's resident bytes (both directions) — the per-rank accounting
  /// the serve metrics report; max over ranks shows the 1/P scaling.
  [[nodiscard]] std::int64_t rank_bytes(int shard) const;

  /// Cumulative exact network statistics for one shard (this view).
  [[nodiscard]] const perf::CommStats& rank_comm_stats(int shard) const {
    return comm_.total_stats(shard);
  }

  /// Installs the token polled between pipeline tiles (nullptr clears).
  /// Applies always complete — output correctness is unconditional — but
  /// once the token fires the pipeline stops prefetching exchanges, so the
  /// apply winds down without posting speculative communication.
  void set_cancel_token(const solve::CancelToken* token) noexcept {
    cancel_ = token;
  }

  [[nodiscard]] const ShardApplyStats& stats() const noexcept { return stats_; }
  /// Const because solves see `const LinearOperator&`, and stats are
  /// apply-side scratch rather than operator identity.
  void reset_stats() const noexcept {
    stats_.reset();
    comm_.reset_stats();
  }

  /// Duplicate mode's forward plan; empty in Reduce mode, whose forward
  /// runs transpose_plan() in reverse.
  [[nodiscard]] const ExchangePlan& forward_plan() const;
  [[nodiscard]] const ExchangePlan& transpose_plan() const;
  [[nodiscard]] const dist::DomainPartition& sino_partition() const;
  [[nodiscard]] const dist::DomainPartition& tomo_partition() const;

  /// The simulated interconnect of THIS view (validation, fault hooks,
  /// traffic matrix).
  [[nodiscard]] dist::SimComm& comm() noexcept { return comm_; }
  [[nodiscard]] const dist::SimComm& comm() const noexcept { return comm_; }

 private:
  /// One shard × pipeline-tile row slice with columns compacted to the
  /// shard's footprint (monotone remap — per-row entry order preserved).
  /// Reduce mode's A_p blocks reuse it with row_begin = 0.
  struct TileBlock {
    idx_t row_begin = 0;  ///< Global row of the slice's first row.
    idx_t rows = 0;
    sparse::CsrMatrix local;
    sparse::BufferedMatrix buffered;  ///< Built for LocalKernel::Buffered.
  };

  /// Everything one apply direction needs. Aggregate (DomainPartition has
  /// no default constructor; sides are built with aggregate init).
  struct Side {
    dist::DomainPartition rows;  ///< Output-row ownership.
    std::vector<std::vector<idx_t>> footprint;  ///< [shard] sorted input ids.
    std::vector<std::vector<TileBlock>> tiles;  ///< [shard][tile].
    ExchangePlan plan;
  };

  struct Storage {
    Options opt;
    idx_t num_rows;
    idx_t num_cols;
    int tiles;  ///< Resolved pipeline tile count.
    Side fwd;   ///< Rows = sinogram (from A); no slices or plan in Reduce.
    Side bwd;   ///< Rows = tomogram (from A^T).
    /// [shard] A_p, Reduce mode only: A restricted to the shard's tomogram
    /// columns (local ids), one row per backward-footprint entry.
    std::vector<TileBlock> reduce;
    /// [round][src shard]: send_displ of bwd.plan.rounds run in reverse
    /// (Reduce mode only).
    std::vector<std::vector<std::vector<nnz_t>>> reverse_displ;
    std::vector<std::int64_t> rank_bytes;
  };

  /// Per-view mutable exchange scratch for one direction.
  struct SideState {
    std::vector<AlignedVector<real>> x_local;  ///< [shard] footprint values.
    std::vector<AlignedVector<real>> staging;  ///< [shard] proxy buffers.
    std::vector<AlignedVector<real>> send;
    std::vector<AlignedVector<real>> recv;
    /// Plan send_displ scaled by the current block width (k=1 uses the
    /// plan's own arrays; SimComm charges element counts, so k-wide lanes
    /// are billed k× automatically).
    std::vector<std::vector<std::vector<nnz_t>>> scaled_displ;
    idx_t scaled_k = 0;
    AlignedVector<real> y_tile;  ///< Interleaved SpMM tile output scratch.
    /// [tile][owner] partials held for the Reduce-mode R pass.
    std::vector<std::vector<AlignedVector<real>>> held;
  };

  explicit ShardedOperator(std::shared_ptr<const Storage> storage);

  /// Null partitions select the kernel-aligned cuts.
  [[nodiscard]] static std::shared_ptr<const Storage> build_storage(
      const sparse::CsrMatrix& a, Options opt,
      const dist::DomainPartition* sino, const dist::DomainPartition* tomo);
  [[nodiscard]] static Side build_side(const sparse::CsrMatrix& m,
                                       dist::DomainPartition rows,
                                       const dist::DomainPartition& input_owner,
                                       const Options& opt, idx_t partsize,
                                       int tiles);

  /// Builds the Reduce-mode A_p blocks and reversed exchange displacements
  /// (needs st.bwd built).
  static void build_reduce(const sparse::CsrMatrix& a, Storage& st);

  /// Gathers self-owned entries into the footprint vectors.
  void gather_self(const Side& side, SideState& state, std::span<const real> x,
                   idx_t k, idx_t n) const;
  /// Runs all rounds of tile `t`'s exchange; returns measured seconds.
  double run_exchange(const Side& side, SideState& state,
                      std::span<const real> x, idx_t k, idx_t n, int t) const;
  /// Reduce-mode forward: A_p, the reversed backward exchange, then R.
  void reduce_apply(std::span<const real> x, std::span<real> y,
                    idx_t k) const;
  /// The shared pipelined executor; k = 1 runs the SpMV kernels, k > 1 the
  /// interleaved SpMM kernels with slab (de)interleaving at the edges.
  void pipelined_apply(const Side& side, SideState& state,
                       std::span<const real> x, std::span<real> y, idx_t k,
                       idx_t n, idx_t m) const;

  std::shared_ptr<const Storage> storage_;
  idx_t num_rows_;
  idx_t num_cols_;
  const solve::CancelToken* cancel_ = nullptr;
  mutable dist::SimComm comm_;
  mutable SideState fwd_state_;
  mutable SideState bwd_state_;
  mutable SideState reduce_state_;
  mutable ShardApplyStats stats_;
};

}  // namespace memxct::shard
