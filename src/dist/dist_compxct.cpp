#include "dist/dist_compxct.hpp"

#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "geometry/siddon.hpp"
#include "perf/network_model.hpp"
#include "solve/vector_ops.hpp"

namespace memxct::dist {

DistCompXctOperator::DistCompXctOperator(const geometry::Geometry& geometry,
                                         int ranks,
                                         const perf::MachineSpec& machine)
    : geometry_(geometry), ranks_(ranks), machine_(machine),
      comm_(ranks) {
  geometry_.validate();
  MEMXCT_CHECK(ranks >= 1);
  const auto total = static_cast<idx_t>(geometry_.sinogram_extent().size());
  ray_displ_.resize(static_cast<std::size_t>(ranks) + 1);
  for (int r = 0; r <= ranks; ++r)
    ray_displ_[static_cast<std::size_t>(r)] = static_cast<idx_t>(
        static_cast<std::int64_t>(total) * r / ranks);
}

idx_t DistCompXctOperator::num_rows() const {
  return static_cast<idx_t>(geometry_.sinogram_extent().size());
}

idx_t DistCompXctOperator::num_cols() const {
  return static_cast<idx_t>(geometry_.tomogram_extent().size());
}

void DistCompXctOperator::apply(std::span<const real> x,
                                std::span<real> y) const {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == num_cols());
  MEMXCT_CHECK(static_cast<idx_t>(y.size()) == num_rows());
  // Ray-parallel gather: no communication (each rank owns its rows).
  std::vector<std::pair<idx_t, real>> segments;
  for (int rank = 0; rank < ranks_; ++rank) {
    for (idx_t i = ray_displ_[static_cast<std::size_t>(rank)];
         i < ray_displ_[static_cast<std::size_t>(rank) + 1]; ++i) {
      geometry::trace_ray(geometry_, i / geometry_.num_channels,
                          i % geometry_.num_channels, segments);
      real acc = 0;
      for (const auto& [pixel, len] : segments)
        acc += x[static_cast<std::size_t>(pixel)] * len;
      y[static_cast<std::size_t>(i)] = acc;
    }
  }
}

void DistCompXctOperator::apply_transpose(std::span<const real> y,
                                          std::span<real> x) const {
  MEMXCT_CHECK(static_cast<idx_t>(y.size()) == num_rows());
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == num_cols());
  const auto pixels = static_cast<std::size_t>(num_cols());
  const auto ranks = static_cast<std::size_t>(ranks_);

  // Per-rank full tomogram replica: the duplication cost.
  std::vector<AlignedVector<real>> replicas(
      ranks, AlignedVector<real>(pixels, real{0}));
  std::vector<std::pair<idx_t, real>> segments;
  for (std::size_t rank = 0; rank < ranks; ++rank) {
    auto& replica = replicas[rank];
    for (idx_t i = ray_displ_[rank]; i < ray_displ_[rank + 1]; ++i) {
      geometry::trace_ray(geometry_, i / geometry_.num_channels,
                          i % geometry_.num_channels, segments);
      const real v = y[static_cast<std::size_t>(i)];
      for (const auto& [pixel, len] : segments)
        replica[static_cast<std::size_t>(pixel)] += v * len;
    }
  }

  if (ranks_ == 1) {
    std::copy(replicas[0].begin(), replicas[0].end(), x.begin());
    return;
  }

  // Ring allreduce through simmpi so its traffic is *recorded*:
  // reduce-scatter (P-1 steps) + allgather (P-1 steps), each step moving a
  // 1/P chunk per rank. Bandwidth-optimal (2·(P-1)/P · N² · 4 B per rank);
  // the latency-side O(log P) term is modeled separately below, matching
  // perf::allreduce_seconds.
  const auto chunk = static_cast<idx_t>(ceil_div(pixels, ranks));
  const auto chunk_range = [&](std::size_t c) {
    const auto begin = std::min(pixels, static_cast<std::size_t>(c) * chunk);
    const auto end =
        std::min(pixels, static_cast<std::size_t>(c + 1) * chunk);
    return std::pair<std::size_t, std::size_t>{begin, end};
  };

  std::vector<AlignedVector<real>> send(ranks);
  std::vector<std::vector<nnz_t>> send_displ(ranks);
  std::vector<AlignedVector<real>> recv;

  // One ring step: every rank p sends chunk send_chunk(p) to rank p+1;
  // the receiver integrates it into the same chunk slot.
  const auto ring_step = [&](auto&& send_chunk, bool accumulate) {
    for (std::size_t p = 0; p < ranks; ++p) {
      const auto [begin, end] = chunk_range(send_chunk(p));
      const std::size_t dest = (p + 1) % ranks;
      send[p].assign(replicas[p].begin() + static_cast<std::ptrdiff_t>(begin),
                     replicas[p].begin() + static_cast<std::ptrdiff_t>(end));
      auto& displ = send_displ[p];
      displ.assign(ranks + 1, 0);
      for (std::size_t q = dest + 1; q <= ranks; ++q)
        displ[q] = static_cast<nnz_t>(send[p].size());
    }
    comm_.alltoallv(send, send_displ, recv);
    for (std::size_t q = 0; q < ranks; ++q) {
      const std::size_t src = (q + ranks - 1) % ranks;
      const auto [begin, end] = chunk_range(send_chunk(src));
      const auto& incoming = recv[q];
      MEMXCT_CHECK(incoming.size() == end - begin);
      if (accumulate)
        for (std::size_t i = begin; i < end; ++i)
          replicas[q][i] += incoming[i - begin];
      else
        for (std::size_t i = begin; i < end; ++i)
          replicas[q][i] = incoming[i - begin];
    }
  };

  // Reduce-scatter: step s moves chunk (p - s) mod P; after P-1 steps rank
  // p holds the fully reduced chunk (p + 1) mod P.
  for (std::size_t step = 0; step < ranks - 1; ++step)
    ring_step([&](std::size_t p) { return (p + ranks - step) % ranks; },
              /*accumulate=*/true);
  // Allgather: step s circulates chunk (p + 1 - s) mod P.
  for (std::size_t step = 0; step < ranks - 1; ++step)
    ring_step(
        [&](std::size_t p) { return (p + 1 + ranks - step) % ranks; },
        /*accumulate=*/false);

  allreduce_seconds_ += perf::allreduce_seconds(
      machine_,
      static_cast<std::int64_t>(pixels) * static_cast<std::int64_t>(
                                              sizeof(real)),
      ranks_);

  std::copy(replicas[0].begin(), replicas[0].end(), x.begin());
  // All replicas must agree after the allgather phase.
  for (std::size_t q = 1; q < ranks; ++q)
    MEMXCT_CHECK(replicas[q] == replicas[0]);
}

}  // namespace memxct::dist
