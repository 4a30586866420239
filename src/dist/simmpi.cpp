#include "dist/simmpi.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "perf/timer.hpp"

namespace memxct::dist {

SimComm::SimComm(int ranks) : ranks_(ranks) {
  MEMXCT_CHECK(ranks >= 1);
  recv_displ_.resize(static_cast<std::size_t>(ranks));
  last_stats_.resize(static_cast<std::size_t>(ranks));
  total_stats_.resize(static_cast<std::size_t>(ranks));
  traffic_matrix_.assign(
      static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks),
      0);
}

void SimComm::alltoallv(const std::vector<AlignedVector<real>>& send,
                        const std::vector<std::vector<nnz_t>>& send_displ,
                        std::vector<AlignedVector<real>>& recv) {
  const auto ranks = static_cast<std::size_t>(ranks_);
  MEMXCT_CHECK(send.size() == ranks && send_displ.size() == ranks);
  for (std::size_t p = 0; p < ranks; ++p) {
    MEMXCT_CHECK(send_displ[p].size() == ranks + 1);
    MEMXCT_CHECK(send_displ[p].back() ==
                 static_cast<nnz_t>(send[p].size()));
  }
  recv.resize(ranks);
  std::fill(last_stats_.begin(), last_stats_.end(), perf::CommStats{});

  // Receive layout: rank q's buffer groups sources in rank order.
  for (std::size_t q = 0; q < ranks; ++q) {
    auto& rd = recv_displ_[q];
    rd.assign(ranks + 1, 0);
    for (std::size_t p = 0; p < ranks; ++p)
      rd[p + 1] = rd[p] + (send_displ[p][q + 1] - send_displ[p][q]);
    recv[q].resize(static_cast<std::size_t>(rd.back()));
  }

  // Move data and account for network traffic (self-sends are local).
  // Each off-rank block's copy (plus fault-hook/validation work) is timed
  // and charged to the SENDER's measured_us: the blocks run serially here,
  // so the per-rank values sum to the exchange's true in-process wall time.
  for (std::size_t p = 0; p < ranks; ++p) {
    for (std::size_t q = 0; q < ranks; ++q) {
      const nnz_t count = send_displ[p][q + 1] - send_displ[p][q];
      if (count == 0) continue;
      perf::WallTimer block_timer;
      std::copy_n(send[p].begin() + send_displ[p][q],
                  static_cast<std::size_t>(count),
                  recv[q].begin() + recv_displ_[q][p]);
      traffic_matrix_[p * ranks + q] += count;
      if (p == q) continue;  // self-copies never traverse the network
      const std::span<real> block(recv[q].data() + recv_displ_[q][p],
                                  static_cast<std::size_t>(count));
      std::size_t delivered = block.size();
      if (fault_hook_)
        delivered = std::min(
            fault_hook_(static_cast<int>(p), static_cast<int>(q), block),
            block.size());
      if (validate_) {
        if (delivered != block.size())
          throw IoError("SimComm: truncated exchange from rank " +
                        std::to_string(p) + " to rank " + std::to_string(q) +
                        " (" + std::to_string(delivered) + " of " +
                        std::to_string(block.size()) + " elements)");
        for (const real v : block)
          if (!std::isfinite(v))
            throw IoError("SimComm: non-finite payload in exchange from "
                          "rank " +
                          std::to_string(p) + " to rank " +
                          std::to_string(q));
      } else if (delivered < block.size()) {
        // Unvalidated data loss degrades to zeros (deterministic, visible
        // in the reconstruction) rather than leaving stale buffer contents.
        std::fill(block.begin() + static_cast<std::ptrdiff_t>(delivered),
                  block.end(), real{0});
      }
      const auto bytes = static_cast<std::int64_t>(count) *
                         static_cast<std::int64_t>(sizeof(real));
      last_stats_[p].measured_us += block_timer.seconds() * 1e6;
      last_stats_[p].bytes_sent += bytes;
      last_stats_[p].messages_sent += 1;
      last_stats_[q].bytes_received += bytes;
      last_stats_[q].messages_received += 1;
    }
  }
  for (std::size_t r = 0; r < ranks; ++r) total_stats_[r] += last_stats_[r];
}

double SimComm::last_exchange_seconds(const perf::MachineSpec& spec) const {
  double worst = 0.0;
  for (int r = 0; r < ranks_; ++r)
    worst = std::max(worst, perf::alltoallv_seconds(spec, last_stats(r)));
  return worst;
}

double SimComm::last_exchange_measured_seconds() const {
  double total = 0.0;
  for (const perf::CommStats& s : last_stats_) total += s.measured_us;
  return total * 1e-6;
}

double SimComm::charge_model(const perf::MachineSpec& spec) {
  double worst = 0.0;
  for (std::size_t r = 0; r < last_stats_.size(); ++r) {
    const double modeled = perf::alltoallv_seconds(spec, last_stats_[r]);
    // total_stats_ already folded last_stats_ in at the end of alltoallv,
    // so the model charge must land in both tiers explicitly.
    last_stats_[r].modeled_us += modeled * 1e6;
    total_stats_[r].modeled_us += modeled * 1e6;
    worst = std::max(worst, modeled);
  }
  return worst;
}

void SimComm::reset_stats() {
  std::fill(last_stats_.begin(), last_stats_.end(), perf::CommStats{});
  std::fill(total_stats_.begin(), total_stats_.end(), perf::CommStats{});
  std::fill(traffic_matrix_.begin(), traffic_matrix_.end(), 0);
}

}  // namespace memxct::dist
