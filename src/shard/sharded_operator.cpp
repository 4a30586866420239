#include "shard/sharded_operator.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "perf/timer.hpp"
#include "shard/partition.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"

namespace memxct::shard {

namespace {

std::int64_t plan_rank_bytes(const ExchangePlan& plan, int p) {
  const auto sp = static_cast<std::size_t>(p);
  std::int64_t b = 0;
  for (const Round& r : plan.rounds)
    b += static_cast<std::int64_t>(r.pack_index[sp].size() * sizeof(idx_t)) +
         static_cast<std::int64_t>(r.send_displ[sp].size() * sizeof(nnz_t)) +
         static_cast<std::int64_t>(
             (r.scatter_pos.empty() ? 0 : r.scatter_pos[sp].size()) *
             sizeof(idx_t));
  b += static_cast<std::int64_t>(plan.self_index[sp].size() * sizeof(idx_t)) +
       static_cast<std::int64_t>(plan.self_pos[sp].size() * sizeof(idx_t));
  return b;
}

/// One local multiply: SpMV at k = 1, interleaved k-lane SpMM otherwise.
void local_kernel(const sparse::CsrMatrix& csr,
                  const sparse::BufferedMatrix& buffered, bool use_buffered,
                  idx_t k, std::span<const real> in, std::span<real> out) {
  if (k == 1 && use_buffered)
    sparse::spmv_buffered(buffered, in, out);
  else if (k == 1)
    sparse::spmv_csr(csr, in, out);
  else if (use_buffered)
    sparse::spmm_buffered(buffered, k, in, out);
  else
    sparse::spmm_csr(csr, k, in, out);
}

/// Block-width scaled copies of per-round send_displ arrays (k = 1 callers
/// use the unscaled arrays; SimComm charges element counts, so k-wide lanes
/// are billed k× automatically). `displ_of(ri)` yields round ri's arrays.
template <class DisplOf>
void scale_displ(std::vector<std::vector<std::vector<nnz_t>>>& scaled,
                 idx_t& scaled_k, std::size_t rounds, idx_t k,
                 DisplOf displ_of) {
  if (scaled_k == k) return;
  scaled.assign(rounds, {});
  for (std::size_t ri = 0; ri < rounds; ++ri) {
    scaled[ri] = displ_of(ri);
    for (auto& per_src : scaled[ri])
      for (auto& d : per_src) d *= static_cast<nnz_t>(k);
  }
  scaled_k = k;
}

}  // namespace

ShardedOperator::ShardedOperator(std::shared_ptr<const Storage> storage)
    : storage_(std::move(storage)),
      num_rows_(storage_->num_rows),
      num_cols_(storage_->num_cols),
      comm_(storage_->opt.num_shards) {
  const auto P = static_cast<std::size_t>(storage_->opt.num_shards);
  for (SideState* st : {&fwd_state_, &bwd_state_, &reduce_state_}) {
    st->x_local.resize(P);
    st->staging.resize(P);
    st->send.resize(P);
    st->recv.resize(P);
  }
}

ShardedOperator::ShardedOperator(const sparse::CsrMatrix& a,
                                 const Options& opt)
    : ShardedOperator(build_storage(a, opt, nullptr, nullptr)) {}

ShardedOperator::ShardedOperator(const sparse::CsrMatrix& a,
                                 const dist::DomainPartition& sino,
                                 const dist::DomainPartition& tomo,
                                 const Options& opt)
    : ShardedOperator(build_storage(a, opt, &sino, &tomo)) {}

ShardedOperator::Side ShardedOperator::build_side(
    const sparse::CsrMatrix& m, dist::DomainPartition rows,
    const dist::DomainPartition& input_owner, const Options& opt,
    idx_t partsize, int tiles) {
  const int P = opt.num_shards;
  Side side{std::move(rows), {}, {}, {}};
  side.footprint.resize(static_cast<std::size_t>(P));
  side.tiles.resize(static_cast<std::size_t>(P));
  std::vector<std::vector<int>> first_tile(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    const idx_t rb = side.rows.begin(p);
    const idx_t re = side.rows.end(p);
    auto& fp = side.footprint[static_cast<std::size_t>(p)];
    fp.assign(m.ind.begin() + static_cast<std::ptrdiff_t>(m.displ[rb]),
              m.ind.begin() + static_cast<std::ptrdiff_t>(m.displ[re]));
    std::sort(fp.begin(), fp.end());
    fp.erase(std::unique(fp.begin(), fp.end()), fp.end());
    first_tile[static_cast<std::size_t>(p)].assign(fp.size(), -1);

    // Tile cuts distribute the shard's kernel partitions over the uniform
    // tile count; small shards get empty tail tiles. Cuts stay multiples of
    // partsize so the buffered stage structure matches the serial build.
    const idx_t local_rows = re - rb;
    const idx_t np = std::max<idx_t>(1, (local_rows + partsize - 1) / partsize);
    auto& blocks = side.tiles[static_cast<std::size_t>(p)];
    blocks.resize(static_cast<std::size_t>(tiles));
    for (int t = 0; t < tiles; ++t) {
      const idx_t off0 = std::min<idx_t>(
          local_rows,
          (np * static_cast<idx_t>(t) / static_cast<idx_t>(tiles)) * partsize);
      const idx_t off1 = std::min<idx_t>(
          local_rows, (np * static_cast<idx_t>(t + 1) /
                       static_cast<idx_t>(tiles)) *
                          partsize);
      TileBlock& block = blocks[static_cast<std::size_t>(t)];
      block.row_begin = rb + off0;
      block.rows = off1 - off0;
      sparse::CsrMatrix& local = block.local;
      local.num_rows = block.rows;
      local.num_cols = static_cast<idx_t>(fp.size());
      local.displ.reserve(static_cast<std::size_t>(block.rows) + 1);
      local.displ.push_back(0);
      const nnz_t block_nnz =
          m.displ[block.row_begin + block.rows] - m.displ[block.row_begin];
      local.ind.reserve(static_cast<std::size_t>(block_nnz));
      local.val.reserve(static_cast<std::size_t>(block_nnz));
      for (idx_t r = block.row_begin; r < block.row_begin + block.rows; ++r) {
        for (nnz_t j = m.displ[r]; j < m.displ[r + 1]; ++j) {
          const auto it = std::lower_bound(fp.begin(), fp.end(), m.ind[j]);
          const auto pos = static_cast<idx_t>(it - fp.begin());
          local.ind.push_back(pos);
          local.val.push_back(m.val[j]);
          auto& ft = first_tile[static_cast<std::size_t>(p)]
                               [static_cast<std::size_t>(pos)];
          if (ft < 0) ft = t;
        }
        local.displ.push_back(static_cast<nnz_t>(local.ind.size()));
      }
      if (opt.kernel == LocalKernel::Buffered && block.rows > 0) {
        block.buffered = sparse::build_buffered(local, opt.buffer);
        sparse::quantize_values(block.buffered, opt.precision);
        // The buffered structure is self-contained; the CSR slice it was
        // staged from is dead weight — drop it so each shard's residency is
        // the buffered footprint alone (the apply never reads it).
        local = sparse::CsrMatrix{};
      }
    }
  }
  side.plan = build_exchange_plan(input_owner, side.footprint, first_tile,
                                  tiles, opt.group_size);
  return side;
}

std::shared_ptr<const ShardedOperator::Storage> ShardedOperator::build_storage(
    const sparse::CsrMatrix& a, Options opt,
    const dist::DomainPartition* sino_in,
    const dist::DomainPartition* tomo_in) {
  if (sino_in != nullptr) {
    MEMXCT_CHECK(tomo_in != nullptr);
    MEMXCT_CHECK_MSG(sino_in->num_parts() == tomo_in->num_parts(),
                     "sharded operator: partition part counts differ");
    MEMXCT_CHECK(sino_in->total() == a.num_rows);
    MEMXCT_CHECK(tomo_in->total() == a.num_cols);
    opt.num_shards = sino_in->num_parts();
  }
  MEMXCT_CHECK_MSG(opt.num_shards >= 1,
                   "sharded operator: num_shards must be >= 1");
  if (opt.precision != sparse::ValueStorage::Fp32 &&
      opt.kernel != LocalKernel::Buffered)
    throw InvalidArgument(
        "sharded operator: reduced precision needs the buffered local kernel");
  if (opt.group_size < 1) opt.group_size = 1;
  const idx_t ps = opt.kernel == LocalKernel::Buffered ? opt.buffer.partsize
                                                       : sparse::kCsrPartsize;
  const sparse::CsrMatrix at = sparse::transpose(a);
  dist::DomainPartition sino =
      sino_in != nullptr ? *sino_in
                         : partition_rows_aligned(a, opt.num_shards, ps);
  dist::DomainPartition tomo =
      tomo_in != nullptr ? *tomo_in
                         : partition_rows_aligned(at, opt.num_shards, ps);

  // Uniform pipeline tile count, bounded by the largest shard's partition
  // count so every non-empty tile is at least one kernel partition.
  idx_t max_np = 1;
  for (int p = 0; p < opt.num_shards; ++p) {
    max_np = std::max(max_np, (sino.size(p) + ps - 1) / ps);
    max_np = std::max(max_np, (tomo.size(p) + ps - 1) / ps);
  }
  int tiles = opt.pipeline_tiles > 0 ? opt.pipeline_tiles : 4;
  tiles = std::max(1, std::min<int>(tiles, static_cast<int>(max_np)));

  const bool reduce = opt.exchange == Exchange::Reduce;
  Storage st{opt,
             a.num_rows,
             a.num_cols,
             tiles,
             reduce ? Side{sino, {}, {}, {}}
                    : build_side(a, sino, tomo, opt, ps, tiles),
             build_side(at, tomo, sino, opt, ps, tiles),
             {},
             {},
             {}};
  if (reduce) build_reduce(a, st);

  st.rank_bytes.assign(static_cast<std::size_t>(opt.num_shards), 0);
  for (int p = 0; p < opt.num_shards; ++p) {
    const auto sp = static_cast<std::size_t>(p);
    std::int64_t b = 0;
    for (const Side* side : {&st.fwd, &st.bwd}) {
      if (side->tiles.empty()) continue;  // Reduce mode's forward side.
      b += static_cast<std::int64_t>(side->footprint[sp].size() *
                                     sizeof(idx_t));
      for (const TileBlock& block : side->tiles[sp]) {
        b += block.local.regular_bytes();
        if (opt.kernel == LocalKernel::Buffered)
          b += block.buffered.bytes();
      }
      b += plan_rank_bytes(side->plan, p);
    }
    if (reduce) {
      b += st.reduce[sp].local.regular_bytes() +
           st.reduce[sp].buffered.bytes();
      for (const auto& round : st.reverse_displ)
        b += static_cast<std::int64_t>(round[sp].size() * sizeof(nnz_t));
    }
    st.rank_bytes[sp] = b;
  }
  return std::make_shared<const Storage>(std::move(st));
}

void ShardedOperator::build_reduce(const sparse::CsrMatrix& a, Storage& st) {
  const int P = st.opt.num_shards;
  const dist::DomainPartition& tomo = st.bwd.rows;
  st.reduce.resize(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    sparse::CsrMatrix& ap = st.reduce[static_cast<std::size_t>(p)].local;
    ap.num_cols = tomo.size(p);
    ap.displ.push_back(0);
  }
  // A row's sorted columns make each shard's entries one contiguous run.
  // Rows are visited in ascending order, so shard p's A_p rows come out in
  // the order of its (sorted) backward footprint.
  for (idx_t r = 0; r < a.num_rows; ++r) {
    nnz_t j = a.displ[r];
    while (j < a.displ[r + 1]) {
      const int p = tomo.owner(a.ind[j]);
      sparse::CsrMatrix& ap = st.reduce[static_cast<std::size_t>(p)].local;
      for (; j < a.displ[r + 1] && a.ind[j] < tomo.end(p); ++j) {
        ap.ind.push_back(a.ind[j] - tomo.begin(p));
        ap.val.push_back(a.val[j]);
      }
      ap.displ.push_back(static_cast<nnz_t>(ap.ind.size()));
      ap.num_rows += 1;
    }
  }
  for (int p = 0; p < P; ++p) {
    TileBlock& block = st.reduce[static_cast<std::size_t>(p)];
    block.rows = block.local.num_rows;
    MEMXCT_CHECK(static_cast<std::size_t>(block.rows) ==
                 st.bwd.footprint[static_cast<std::size_t>(p)].size());
    if (st.opt.kernel == LocalKernel::Buffered && block.rows > 0) {
      block.buffered = sparse::build_buffered(block.local, st.opt.buffer);
      sparse::quantize_values(block.buffered, st.opt.precision);
      block.local = sparse::CsrMatrix{};
    }
  }

  // Reversing a round swaps the roles of sender and receiver: what q sent
  // to p, p now sends to q.
  const auto sP = static_cast<std::size_t>(P);
  for (const Round& round : st.bwd.plan.rounds) {
    std::vector<std::vector<nnz_t>> rev(sP, std::vector<nnz_t>(sP + 1, 0));
    for (std::size_t p = 0; p < sP; ++p)
      for (std::size_t q = 0; q < sP; ++q)
        rev[p][q + 1] = rev[p][q] + (round.send_displ[q][p + 1] -
                                     round.send_displ[q][p]);
    st.reverse_displ.push_back(std::move(rev));
  }
}

void ShardedOperator::gather_self(const Side& side, SideState& state,
                                  std::span<const real> x, idx_t k,
                                  idx_t n) const {
  const int P = storage_->opt.num_shards;
  for (int p = 0; p < P; ++p) {
    const auto sp = static_cast<std::size_t>(p);
    auto& xl = state.x_local[sp];
    xl.resize(side.footprint[sp].size() * static_cast<std::size_t>(k));
    const auto& idx = side.plan.self_index[sp];
    const auto& pos = side.plan.self_pos[sp];
    for (std::size_t j = 0; j < idx.size(); ++j)
      for (idx_t s = 0; s < k; ++s)
        xl[static_cast<std::size_t>(pos[j]) * k + s] =
            x[static_cast<std::size_t>(s) * n + idx[j]];
    comm_.count_local(p, static_cast<std::int64_t>(idx.size()) * k);
  }
}

double ShardedOperator::run_exchange(const Side& side, SideState& state,
                                     std::span<const real> x, idx_t k,
                                     idx_t n, int t) const {
  const ExchangePlan& plan = side.plan;
  const int P = plan.num_shards;
  if (k > 1)
    scale_displ(state.scaled_displ, state.scaled_k, plan.rounds.size(), k,
                [&plan](std::size_t ri) { return plan.rounds[ri].send_displ; });

  double seconds = 0.0;
  for (int r = 0; r < plan.rounds_per_tile; ++r) {
    const auto ri =
        static_cast<std::size_t>(t) * plan.rounds_per_tile +
        static_cast<std::size_t>(r);
    const Round& round = plan.rounds[ri];
    for (int p = 0; p < P; ++p) {
      const auto sp = static_cast<std::size_t>(p);
      const auto& pk = round.pack_index[sp];
      auto& buf = state.send[sp];
      buf.resize(pk.size() * static_cast<std::size_t>(k));
      if (round.from_staging) {
        const auto& stage = state.staging[sp];
        for (std::size_t j = 0; j < pk.size(); ++j)
          for (idx_t s = 0; s < k; ++s)
            buf[j * k + s] = stage[static_cast<std::size_t>(pk[j]) * k + s];
      } else {
        for (std::size_t j = 0; j < pk.size(); ++j)
          for (idx_t s = 0; s < k; ++s)
            buf[j * k + s] = x[static_cast<std::size_t>(s) * n + pk[j]];
      }
    }
    comm_.alltoallv(state.send,
                    k > 1 ? state.scaled_displ[ri] : round.send_displ,
                    state.recv);
    // Measured copy time drives the pipeline accounting; the α–β model of
    // the same round is charged alongside for skew reporting.
    seconds += comm_.last_exchange_measured_seconds();
    stats_.comm_modeled_seconds +=
        comm_.charge_model(storage_->opt.machine);
    if (round.to_staging) {
      for (int p = 0; p < P; ++p) {
        const auto sp = static_cast<std::size_t>(p);
        state.staging[sp].assign(state.recv[sp].begin(),
                                 state.recv[sp].end());
      }
    } else {
      for (int p = 0; p < P; ++p) {
        const auto sp = static_cast<std::size_t>(p);
        const auto& pos = round.scatter_pos[sp];
        const auto& recv = state.recv[sp];
        MEMXCT_CHECK(recv.size() == pos.size() * static_cast<std::size_t>(k));
        auto& xl = state.x_local[sp];
        for (std::size_t e = 0; e < pos.size(); ++e)
          for (idx_t s = 0; s < k; ++s)
            xl[static_cast<std::size_t>(pos[e]) * k + s] = recv[e * k + s];
      }
    }
  }
  return seconds;
}

void ShardedOperator::pipelined_apply(const Side& side, SideState& state,
                                      std::span<const real> x,
                                      std::span<real> y, idx_t k, idx_t n,
                                      idx_t m) const {
  MEMXCT_CHECK(x.size() == static_cast<std::size_t>(n) * k);
  MEMXCT_CHECK(y.size() == static_cast<std::size_t>(m) * k);
  const int P = storage_->opt.num_shards;
  const int T = side.plan.tiles;
  const bool buffered = storage_->opt.kernel == LocalKernel::Buffered;
  perf::WallTimer timer;

  gather_self(side, state, x, k, n);

  int exchanged = 0;
  bool stopped = false;
  for (int t = 0; t < T; ++t) {
    if (exchanged <= t) {
      // Not prefetched (tile 0, or the pipeline was de-pipelined by a
      // cancel poll): this exchange is on the critical path, unhidden.
      stats_.comm_seconds += run_exchange(side, state, x, k, n, t);
      exchanged = t + 1;
    }

    if (cancel_ != nullptr) {
      stats_.cancel_polls += 1;
      if (!stopped && cancel_->should_stop()) stopped = true;
    }
    double next_comm = 0.0;
    if (t + 1 < T) {
      if (!stopped) {
        next_comm = run_exchange(side, state, x, k, n, t + 1);
        stats_.comm_seconds += next_comm;
        exchanged = t + 2;
      } else {
        stats_.depipelined_tiles += 1;
      }
    }

    double wall = 0.0, sum = 0.0;
    for (int p = 0; p < P; ++p) {
      const auto sp = static_cast<std::size_t>(p);
      const TileBlock& block = side.tiles[sp][static_cast<std::size_t>(t)];
      if (block.rows == 0) continue;
      const auto& xl = state.x_local[sp];
      timer.reset();
      if (k == 1) {
        local_kernel(block.local, block.buffered, buffered, 1, xl,
                     y.subspan(static_cast<std::size_t>(block.row_begin),
                               static_cast<std::size_t>(block.rows)));
      } else {
        auto& yt = state.y_tile;
        yt.resize(static_cast<std::size_t>(block.rows) * k);
        local_kernel(block.local, block.buffered, buffered, k, xl, yt);
        for (idx_t r = 0; r < block.rows; ++r)
          for (idx_t s = 0; s < k; ++s)
            y[static_cast<std::size_t>(s) * m + block.row_begin + r] =
                yt[static_cast<std::size_t>(r) * k + s];
      }
      const double sec = timer.seconds();
      wall = std::max(wall, sec);
      sum += sec;
    }
    stats_.compute_seconds += wall;
    stats_.compute_sum_seconds += sum;
    stats_.overlap_saved_seconds += std::min(next_comm, wall);
  }
  stats_.applies += 1;
}

void ShardedOperator::reduce_apply(std::span<const real> x, std::span<real> y,
                                   idx_t k) const {
  const idx_t n = num_cols_;
  const idx_t m = num_rows_;
  MEMXCT_CHECK(x.size() == static_cast<std::size_t>(n) * k);
  MEMXCT_CHECK(y.size() == static_cast<std::size_t>(m) * k);
  const Storage& st = *storage_;
  const Side& side = st.bwd;  // Its footprints are the A_p output rows.
  const ExchangePlan& plan = side.plan;
  const int P = st.opt.num_shards;
  const bool buffered = st.opt.kernel == LocalKernel::Buffered;
  SideState& state = reduce_state_;
  perf::WallTimer timer;

  // A_p: shard p's partial sinogram rows (footprint order, k lanes
  // interleaved) from the tomogram slice it owns.
  double wall = 0.0, sum = 0.0;
  for (int p = 0; p < P; ++p) {
    const auto sp = static_cast<std::size_t>(p);
    const TileBlock& block = st.reduce[sp];
    auto& partial = state.x_local[sp];
    partial.resize(static_cast<std::size_t>(block.rows) * k);
    if (block.rows == 0) continue;
    const idx_t c0 = side.rows.begin(p);
    const idx_t cols = side.rows.size(p);
    timer.reset();
    if (k == 1) {
      local_kernel(block.local, block.buffered, buffered, 1,
                   x.subspan(static_cast<std::size_t>(c0),
                             static_cast<std::size_t>(cols)),
                   partial);
    } else {
      // y_tile doubles as the interleaved input slab here.
      auto& xt = state.y_tile;
      xt.resize(static_cast<std::size_t>(cols) * k);
      for (idx_t j = 0; j < cols; ++j)
        for (idx_t s = 0; s < k; ++s)
          xt[static_cast<std::size_t>(j) * k + s] =
              x[static_cast<std::size_t>(s) * n + c0 + j];
      local_kernel(block.local, block.buffered, buffered, k, xt, partial);
    }
    const double sec = timer.seconds();
    wall = std::max(wall, sec);
    sum += sec;
  }
  stats_.compute_seconds += wall;
  stats_.compute_sum_seconds += sum;

  // C: the backward plan's rounds, last to first within each tile, with
  // sender and receiver swapped. A round that delivered into footprints now
  // packs partials from them; a round that filled a proxy's staging buffer
  // now ships the proxy's staging sums back to the owners.
  if (k > 1)
    scale_displ(state.scaled_displ, state.scaled_k, plan.rounds.size(), k,
                [&st](std::size_t ri) { return st.reverse_displ[ri]; });
  state.held.resize(static_cast<std::size_t>(plan.tiles));
  for (int t = 0; t < plan.tiles; ++t) {
    for (int r = plan.rounds_per_tile - 1; r >= 0; --r) {
      const auto ri = static_cast<std::size_t>(t) * plan.rounds_per_tile +
                      static_cast<std::size_t>(r);
      const Round& round = plan.rounds[ri];
      for (int p = 0; p < P; ++p) {
        const auto sp = static_cast<std::size_t>(p);
        auto& buf = state.send[sp];
        if (round.to_staging) {
          buf.assign(state.staging[sp].begin(), state.staging[sp].end());
          continue;
        }
        const auto& pos = round.scatter_pos[sp];
        const auto& partial = state.x_local[sp];
        buf.resize(pos.size() * static_cast<std::size_t>(k));
        for (std::size_t e = 0; e < pos.size(); ++e)
          for (idx_t s = 0; s < k; ++s)
            buf[e * k + s] = partial[static_cast<std::size_t>(pos[e]) * k + s];
      }
      comm_.alltoallv(state.send,
                      k > 1 ? state.scaled_displ[ri] : st.reverse_displ[ri],
                      state.recv);
      stats_.comm_seconds += comm_.last_exchange_measured_seconds();
      stats_.comm_modeled_seconds += comm_.charge_model(st.opt.machine);
      if (round.from_staging) {
        // Proxies pre-sum their members' partials (member-ascending) into
        // the staging slots the forward round-1 layout defines.
        for (int p = 0; p < P; ++p) {
          const auto sp = static_cast<std::size_t>(p);
          auto& acc = state.staging[sp];
          acc.assign(static_cast<std::size_t>(
                         st.reverse_displ[ri - 1][sp].back()) * k,
                     real{0});
          const auto& pk = round.pack_index[sp];
          const auto& recv = state.recv[sp];
          for (std::size_t e = 0; e < pk.size(); ++e)
            for (idx_t s = 0; s < k; ++s)
              acc[static_cast<std::size_t>(pk[e]) * k + s] += recv[e * k + s];
        }
      } else {
        state.held[static_cast<std::size_t>(t)].swap(state.recv);
      }
    }
  }

  // R: each owner sums its rows' partials source by source, ascending, its
  // own locally kept partials at its own position. Every (source, row) pair
  // occurs once across tiles, so the order per row is tile-independent.
  double r_max = 0.0;
  for (int q = 0; q < P; ++q) {
    const auto sq = static_cast<std::size_t>(q);
    timer.reset();
    const idx_t r0 = st.fwd.rows.begin(q);
    const idx_t r1 = st.fwd.rows.end(q);
    for (idx_t s = 0; s < k; ++s)
      std::fill(y.begin() + static_cast<std::ptrdiff_t>(s * m + r0),
                y.begin() + static_cast<std::ptrdiff_t>(s * m + r1), real{0});
    for (int src = 0; src < P; ++src) {
      if (src == q) {
        const auto& idx = plan.self_index[sq];
        const auto& pos = plan.self_pos[sq];
        const auto& partial = state.x_local[sq];
        for (std::size_t j = 0; j < idx.size(); ++j)
          for (idx_t s = 0; s < k; ++s)
            y[static_cast<std::size_t>(s) * m + idx[j]] +=
                partial[static_cast<std::size_t>(pos[j]) * k + s];
        comm_.count_local(q, static_cast<std::int64_t>(idx.size()) * k);
      }
      for (int t = 0; t < plan.tiles; ++t) {
        // The reversed owner-facing round is round 0 of the tile; its
        // forward pack_index names the global row of every arrival.
        const Round& round = plan.round(t, 0);
        const auto& pk = round.pack_index[sq];
        const auto& recv = state.held[static_cast<std::size_t>(t)][sq];
        const auto& sd = round.send_displ[sq];
        for (nnz_t e = sd[static_cast<std::size_t>(src)];
             e < sd[static_cast<std::size_t>(src) + 1]; ++e)
          for (idx_t s = 0; s < k; ++s)
            y[static_cast<std::size_t>(s) * m + pk[e]] +=
                recv[static_cast<std::size_t>(e) * k + s];
      }
    }
    r_max = std::max(r_max, timer.seconds());
  }
  stats_.reduce_seconds += r_max;
  stats_.applies += 1;
}

void ShardedOperator::apply(std::span<const real> x, std::span<real> y) const {
  apply_block(x, y, 1);
}

void ShardedOperator::apply_transpose(std::span<const real> y,
                                      std::span<real> x) const {
  pipelined_apply(storage_->bwd, bwd_state_, y, x, 1, num_rows_, num_cols_);
}

void ShardedOperator::apply_block(std::span<const real> x, std::span<real> y,
                                  idx_t k) const {
  if (storage_->opt.exchange == Exchange::Reduce)
    reduce_apply(x, y, k);
  else
    pipelined_apply(storage_->fwd, fwd_state_, x, y, k, num_cols_, num_rows_);
}

void ShardedOperator::apply_transpose_block(std::span<const real> y,
                                            std::span<real> x, idx_t k) const {
  pipelined_apply(storage_->bwd, bwd_state_, y, x, k, num_rows_, num_cols_);
}

std::unique_ptr<ShardedOperator> ShardedOperator::make_view() const {
  return std::unique_ptr<ShardedOperator>(new ShardedOperator(storage_));
}

int ShardedOperator::num_shards() const noexcept {
  return storage_->opt.num_shards;
}

int ShardedOperator::pipeline_tiles() const noexcept {
  return storage_->tiles;
}

Exchange ShardedOperator::exchange() const noexcept {
  return storage_->opt.exchange;
}

std::int64_t ShardedOperator::total_partial_rows() const {
  std::int64_t rows = 0;
  for (const auto& fp : storage_->bwd.footprint)
    rows += static_cast<std::int64_t>(fp.size());
  return rows;
}

std::int64_t ShardedOperator::bytes() const {
  std::int64_t total = 0;
  for (const std::int64_t b : storage_->rank_bytes) total += b;
  return total;
}

std::int64_t ShardedOperator::rank_bytes(int shard) const {
  return storage_->rank_bytes[static_cast<std::size_t>(shard)];
}

const ExchangePlan& ShardedOperator::forward_plan() const {
  return storage_->fwd.plan;
}

const ExchangePlan& ShardedOperator::transpose_plan() const {
  return storage_->bwd.plan;
}

const dist::DomainPartition& ShardedOperator::sino_partition() const {
  return storage_->fwd.rows;
}

const dist::DomainPartition& ShardedOperator::tomo_partition() const {
  return storage_->bwd.rows;
}

}  // namespace memxct::shard
