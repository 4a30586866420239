// Distributed compute-centric comparator: Trace's parallelization strategy
// (Section 2.4 / Table 1's middle column) executed over simmpi.
//
// Each rank owns a block of rays (sinogram rows) and a FULL tomogram
// replica. Forward projection is embarrassingly parallel; backprojection
// scatters into the local replica, after which replicas are reduced with
// an allreduce — the O(N² log P) communication the paper charges against
// the compute-centric approach. Running it through the same simmpi runtime
// yields *measured* byte counts to set against MemXCT's sparse
// alltoallv in bench_table1.
#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "dist/partition.hpp"
#include "dist/simmpi.hpp"
#include "geometry/geometry.hpp"
#include "perf/machine_model.hpp"
#include "solve/operator.hpp"

namespace memxct::dist {

class DistCompXctOperator final : public solve::LinearOperator {
 public:
  /// Rays are split into `ranks` contiguous blocks (natural order —
  /// the compute-centric systems don't reorder domains).
  DistCompXctOperator(const geometry::Geometry& geometry, int ranks,
                      const perf::MachineSpec& machine =
                          perf::machine("Theta"));

  [[nodiscard]] idx_t num_rows() const override;
  [[nodiscard]] idx_t num_cols() const override;

  /// Forward projection: each rank traces its ray block (no communication).
  void apply(std::span<const real> x, std::span<real> y) const override;

  /// Backprojection: per-rank scatter into a full-domain replica, then an
  /// allreduce over the replicas (executed as pairwise exchanges through
  /// simmpi so its bytes are recorded; time additionally modeled with the
  /// recursive-doubling formula).
  void apply_transpose(std::span<const real> y,
                       std::span<real> x) const override;

  /// Bytes a single rank sent over the network so far (the allreduce
  /// traffic Table 1 contrasts with MemXCT's O(MN/sqrt(P))).
  [[nodiscard]] std::int64_t rank_bytes_sent(int rank) const {
    return comm_.total_stats(rank).bytes_sent;
  }

  /// Modeled allreduce seconds accumulated (recursive doubling on the
  /// configured machine).
  [[nodiscard]] double modeled_allreduce_seconds() const noexcept {
    return allreduce_seconds_;
  }

  /// Per-rank replica memory — the duplication cost (does not shrink
  /// with P, unlike MemXCT's partitioned domains).
  [[nodiscard]] std::int64_t replica_bytes() const {
    return static_cast<std::int64_t>(geometry_.tomogram_extent().size()) *
           static_cast<std::int64_t>(sizeof(real));
  }

 private:
  geometry::Geometry geometry_;
  int ranks_;
  perf::MachineSpec machine_;
  std::vector<idx_t> ray_displ_;  ///< Ray-block boundaries per rank.
  mutable SimComm comm_;
  mutable double allreduce_seconds_ = 0.0;
};

}  // namespace memxct::dist
