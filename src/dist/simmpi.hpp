// simmpi: an in-process message-passing runtime standing in for MPI.
//
// This host has no MPI; the distributed algorithm is nevertheless exercised
// end-to-end by running every rank's program state in one process and
// moving data between per-rank buffers through this runtime. Byte and
// message counts are *exact* (what MPI_Alltoallv would transfer). Timing
// exists in two tiers: each off-rank copy block is MEASURED as it runs
// (CommStats::measured_us — what the exchange costs in this process), and
// the α–β parameters of the target machine (perf::network_model) provide
// the MODELED cost on the real interconnect (CommStats::modeled_us, charged
// via charge_model), since loopback memcpy time says nothing about a
// network. A port to real MPI replaces only this class.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "perf/network_model.hpp"

namespace memxct::dist {

/// Optional fault hook for resilience testing: invoked on each nonzero
/// off-rank block after it lands in the receive buffer, with (source rank,
/// destination rank, payload). It may perturb the payload in place and/or
/// return a reduced element count to model a truncated message (undelivered
/// tail elements are zero-filled). resil::FaultInjector supplies standard
/// hooks; tests install their own.
using FaultHook = std::function<std::size_t(int src, int dst,
                                            std::span<real> payload)>;

/// Per-rank variable-size exchange (MPI_Alltoallv equivalent).
class SimComm {
 public:
  explicit SimComm(int ranks);

  [[nodiscard]] int ranks() const noexcept { return ranks_; }

  /// Executes one alltoallv: rank p's send buffer holds its outgoing
  /// elements grouped by destination, with group boundaries in
  /// send_displ[p] (size ranks+1). On return, recv[q] holds incoming
  /// elements grouped by source with boundaries in recv_displ(q).
  /// Self-destined data is copied but not charged to network statistics.
  void alltoallv(const std::vector<AlignedVector<real>>& send,
                 const std::vector<std::vector<nnz_t>>& send_displ,
                 std::vector<AlignedVector<real>>& recv);

  /// Counts `elements` that `rank` copied to itself outside alltoallv (owned
  /// inputs gathered locally) on the traffic-matrix diagonal, exactly as a
  /// self-destined alltoallv block would be. Never charged to network
  /// statistics.
  void count_local(int rank, std::int64_t elements) {
    traffic_matrix_[static_cast<std::size_t>(rank) *
                        static_cast<std::size_t>(ranks_ + 1)] += elements;
  }

  /// Group boundaries of rank q's receive buffer after the last exchange.
  [[nodiscard]] const std::vector<nnz_t>& recv_displ(int rank) const {
    return recv_displ_[static_cast<std::size_t>(rank)];
  }

  /// Network statistics of the last exchange for one rank.
  [[nodiscard]] const perf::CommStats& last_stats(int rank) const {
    return last_stats_[static_cast<std::size_t>(rank)];
  }

  /// Cumulative network statistics per rank.
  [[nodiscard]] const perf::CommStats& total_stats(int rank) const {
    return total_stats_[static_cast<std::size_t>(rank)];
  }

  /// Element counts moved between rank pairs over all exchanges
  /// (row-major ranks × ranks; includes self-traffic) — the Fig 7
  /// communication matrix.
  [[nodiscard]] const std::vector<std::int64_t>& traffic_matrix()
      const noexcept {
    return traffic_matrix_;
  }

  /// Modeled wall time of the last exchange on `spec` (max over ranks of
  /// the α–β cost).
  [[nodiscard]] double last_exchange_seconds(
      const perf::MachineSpec& spec) const;

  /// MEASURED wall time of the last exchange: the sum over ranks of their
  /// timed copy blocks (every rank's copies ran serially in this process,
  /// so the sum IS the exchange's in-process wall time).
  [[nodiscard]] double last_exchange_measured_seconds() const;

  /// Charges the α–β model cost of the last exchange into each rank's
  /// modeled_us (both last- and cumulative-stats tiers) and returns the
  /// modeled exchange wall time (max over ranks) — call once per exchange
  /// to keep the model alongside the measurement.
  double charge_model(const perf::MachineSpec& spec);

  void reset_stats();

  /// Installs (or clears, with an empty function) the fault hook applied to
  /// every off-rank block of subsequent exchanges.
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Enables exchange validation: every off-rank block must arrive complete
  /// (no truncation) and finite, or alltoallv throws IoError. This is the
  /// in-process stand-in for the integrity checking a real transport layers
  /// under MPI; off by default because it adds a full scan of received
  /// data per exchange.
  void set_validation(bool on) noexcept { validate_ = on; }
  [[nodiscard]] bool validation() const noexcept { return validate_; }

 private:
  int ranks_;
  std::vector<std::vector<nnz_t>> recv_displ_;
  std::vector<perf::CommStats> last_stats_;
  std::vector<perf::CommStats> total_stats_;
  std::vector<std::int64_t> traffic_matrix_;
  FaultHook fault_hook_;
  bool validate_ = false;
};

}  // namespace memxct::dist
