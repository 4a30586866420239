// The partition body shared by every buffered apply (internal to sparse/).
//
// Every buffered kernel — dynamic and planned, full, subset row-range and
// column-range, single- and multi-RHS, and the shard-local multiply — runs
// its partitions through partition_apply below. Each stage is gathered into
// the L1 buffer, then computed one row group at a time: SIMD across the
// group's kSliceRows rows at K = 1 (group_k1), and kSliceRows independent
// row accumulators at K > 1, lanes in compile-time-width passes of up to
// kLaneChunk (group_block). The value decoder (fp32, bf16 or fp16) is a
// template parameter of the body, picked once per apply by with_decoder.
//
// Bitwise rule: a pad lane (e >= rowlen) and, in a clipped stage, a lane
// outside the row's in-window run are masked, never multiplied by zero. So
// every row still adds exactly its own entries in column order starting
// from 0, then adds that per-stage sum to its output: row order per lane,
// SIMD across rows. This is the arithmetic of the row-order scalar kernel
// the layout replaced, so y is bit for bit the same for any x, ±0, ±inf
// and subnormals included. The one thing no kernel here pins is which of
// two different NaN payloads an addition returns: IEEE 754 leaves it open
// and the compiler treats + as commutative, so y is NaN exactly where it
// was, with the same bits whenever x's NaNs are the default NaN that
// inf − inf produces. Only TUs compiled with -ffp-contract=off may include
// this header (src/sparse/CMakeLists.txt), so no mul+add pair is fused.
#pragma once

#include <omp.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "sparse/buffered.hpp"
#include "sparse/plan.hpp"
#include "sparse/precision.hpp"
#include "sparse/spmm.hpp"

namespace memxct::sparse::detail {

static_assert(kSliceRows == 16, "group_k1 maps one group onto one zmm");

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__F16C__)
#define MEMXCT_BUFFERED_AVX512 1
#endif

// Value decoders, one per ValueStorage. `values` picks the stored array,
// `scalar` decodes one value and `load` (AVX-512 only) the masked lanes of
// one row group. Every decode is exact: fp32 is a plain load, bf16 is the
// top half of an fp32 (widen, shift left 16), and fp16 converts in
// hardware (vcvtph2ps, and vcvtsh2ss for one value), so each product uses
// exactly the value the scalar decoders of sparse/precision.hpp return.
struct DecodeFp32 {
  using Stored = real;
  static const Stored* values(const BufferedMatrix& a) noexcept {
    return a.val.data();
  }
  static real scalar(Stored v) noexcept { return v; }
#if MEMXCT_BUFFERED_AVX512
  static __m512 load(__mmask16 live, const Stored* p) noexcept {
    return _mm512_maskz_loadu_ps(live, p);
  }
#endif
};

struct DecodeBf16 {
  using Stored = std::uint16_t;
  static const Stored* values(const BufferedMatrix& a) noexcept {
    return a.val16.data();
  }
  static real scalar(Stored v) noexcept { return bf16_to_fp32(v); }
#if MEMXCT_BUFFERED_AVX512
  static __m512 load(__mmask16 live, const Stored* p) noexcept {
    return _mm512_castsi512_ps(_mm512_maskz_slli_epi32(
        live,
        _mm512_maskz_cvtepu16_epi32(live, _mm256_maskz_loadu_epi16(live, p)),
        16));
  }
#endif
};

struct DecodeFp16 {
  using Stored = std::uint16_t;
  static const Stored* values(const BufferedMatrix& a) noexcept {
    return a.val16.data();
  }
#if MEMXCT_BUFFERED_AVX512
  // F16C's vcvtsh2ss: one instruction per value in the K > 1 lane body,
  // instead of the branchy portable decoder.
  static real scalar(Stored v) noexcept { return _cvtsh_ss(v); }
#else
  static real scalar(Stored v) noexcept { return fp16_to_fp32(v); }
#endif
#if MEMXCT_BUFFERED_AVX512
  static __m512 load(__mmask16 live, const Stored* p) noexcept {
    return _mm512_maskz_cvtph_ps(live, _mm256_maskz_loadu_epi16(live, p));
  }
#endif
};

/// Calls fn(Decode{}) with the decoder of a's value storage: the one runtime
/// dispatch of an apply. The callee passes decltype of its argument on as
/// partition_apply's template parameter.
template <class Fn>
void with_decoder(const BufferedMatrix& a, const Fn& fn) {
  switch (a.storage) {
    case ValueStorage::Fp32:
      fn(DecodeFp32{});
      return;
    case ValueStorage::Bf16:
      fn(DecodeBf16{});
      return;
    case ValueStorage::Fp16:
      fn(DecodeFp16{});
      return;
  }
}

/// Buffer slots [lo, hi) of one stage that an apply gathers and reads.
struct SlotWindow {
  idx_t lo = 0;
  idx_t hi = 0;
};

/// Window of a full apply: every stage of the partition, every slot, and x
/// indexed by global column.
struct FullWindow {
  const BufferedMatrix& a;

  [[nodiscard]] idx_t first() const noexcept { return 0; }
  [[nodiscard]] idx_t stage_begin(idx_t part) const noexcept {
    return a.partdispl[static_cast<std::size_t>(part)];
  }
  [[nodiscard]] idx_t stage_end(idx_t part) const noexcept {
    return a.partdispl[static_cast<std::size_t>(part) + 1];
  }
  [[nodiscard]] SlotWindow slots(idx_t stage) const noexcept {
    return {0, a.stagenz[static_cast<std::size_t>(stage)]};
  }
};

/// K = 1 group body: out[r] += the sum of entries [lo[r], hi[r]) of row r,
/// e in [e0, e1), for each of the group's `rows` rows. Entry e of row r is
/// ind/val[e*rows + r]. Without kClip every lo[r] is 0 and `lo` is unread.
template <class Decode, bool kClip>
inline void group_k1(const buf_idx_t* ind, const typename Decode::Stored* val,
                     idx_t rows, idx_t e0, idx_t e1, const idx_t* lo,
                     const idx_t* hi, const real* input, real* out) {
#if MEMXCT_BUFFERED_AVX512
  // One zmm per group; lanes past `rows` load hi = 0 and never go live.
  const auto rows_mask = static_cast<__mmask16>((1u << rows) - 1u);
  const __m512i hiv = _mm512_maskz_loadu_epi32(rows_mask, hi);
  const __m512i lov =
      kClip ? _mm512_maskz_loadu_epi32(rows_mask, lo) : _mm512_setzero_si512();
  __m512 acc = _mm512_setzero_ps();
  for (idx_t e = e0; e < e1; ++e) {
    const __m512i ev = _mm512_set1_epi32(e);
    __mmask16 live = _mm512_cmplt_epi32_mask(ev, hiv);
    if constexpr (kClip) live &= _mm512_cmpge_epi32_mask(ev, lov);
    const std::size_t at = static_cast<std::size_t>(e) * rows;
    const __m512i slot = _mm512_maskz_cvtepu16_epi32(
        live, _mm256_maskz_loadu_epi16(live, ind + at));
    const __m512 x =
        _mm512_mask_i32gather_ps(_mm512_setzero_ps(), live, slot, input, 4);
    const __m512 p = _mm512_mul_ps(x, Decode::load(live, val + at));
    acc = _mm512_mask_add_ps(acc, live, acc, p);
  }
  _mm512_mask_storeu_ps(
      out, rows_mask,
      _mm512_add_ps(_mm512_maskz_loadu_ps(rows_mask, out), acc));
#else
  real acc[kSliceRows] = {};
  for (idx_t e = e0; e < e1; ++e) {
    const buf_idx_t* const ie = ind + static_cast<std::size_t>(e) * rows;
    const typename Decode::Stored* const ve =
        val + static_cast<std::size_t>(e) * rows;
#pragma omp simd
    for (idx_t r = 0; r < rows; ++r)
      if (e < hi[r] && (!kClip || e >= lo[r]))
        acc[r] += input[ie[r]] * Decode::scalar(ve[r]);
  }
  for (idx_t r = 0; r < rows; ++r) out[r] += acc[r];
#endif
}

/// K > 1 group body for lanes [c, c + kLanes) of k interleaved lanes, with
/// `input` and `out` already offset by c: the same masked entries, each
/// feeding kLanes lanes; the group's rows are independent accumulators.
/// kLanes is fixed at compile time so the lane update is a fixed-width
/// vector op: a runtime-width lane loop was 2-3x slower at K = 2, 4 and 16,
/// and at K = 2 and 4 slower than the row-order kernel this layout replaced.
template <class Decode, bool kClip, idx_t kLanes>
void group_lanes(const buf_idx_t* ind, const typename Decode::Stored* val,
                 idx_t rows, idx_t e0, idx_t e1, const idx_t* lo,
                 const idx_t* hi, idx_t k, const real* input, real* out) {
  const auto kk = static_cast<std::size_t>(k);
  real acc[kSliceRows * kLanes] = {};
  for (idx_t e = e0; e < e1; ++e)
    for (idx_t r = 0; r < rows; ++r) {
      if (e >= hi[r] || (kClip && e < lo[r])) continue;
      const std::size_t i = static_cast<std::size_t>(e) * rows + r;
      const real v = Decode::scalar(val[i]);
      const real* const xr = input + static_cast<std::size_t>(ind[i]) * kk;
      real* const ar = acc + static_cast<std::size_t>(r) * kLanes;
#pragma omp simd
      for (idx_t s = 0; s < kLanes; ++s) ar[s] += xr[s] * v;
    }
  for (idx_t r = 0; r < rows; ++r) {
    real* const o = out + static_cast<std::size_t>(r) * kk;
    const real* const ar = acc + static_cast<std::size_t>(r) * kLanes;
#pragma omp simd
    for (idx_t s = 0; s < kLanes; ++s) o[s] += ar[s];
  }
}

/// Lanes one group_lanes pass covers at most (a zmm of fp32).
inline constexpr idx_t kLaneChunk = 16;

template <class Decode>
using GroupLanesFn = void (*)(const buf_idx_t*, const typename Decode::Stored*,
                              idx_t, idx_t, idx_t, const idx_t*, const idx_t*,
                              idx_t, const real*, real*);

template <class Decode, bool kClip, idx_t... W>
constexpr std::array<GroupLanesFn<Decode>, sizeof...(W)> lane_bodies(
    std::integer_sequence<idx_t, W...>) {
  return {&group_lanes<Decode, kClip, W + 1>...};
}

/// K > 1 group body: lanes in passes of up to kLaneChunk, each pass through
/// group_lanes instantiated at exactly its width, so every k in
/// [2, kMaxBlockWidth] runs fixed-width lane updates. A pass re-reads the
/// group's entries, which the previous pass left in L1.
template <class Decode, bool kClip>
inline void group_block(const buf_idx_t* ind,
                        const typename Decode::Stored* val, idx_t rows,
                        idx_t e0, idx_t e1, const idx_t* lo, const idx_t* hi,
                        idx_t k, const real* input, real* out) {
  static constexpr auto kBodies = lane_bodies<Decode, kClip>(
      std::make_integer_sequence<idx_t, kLaneChunk>{});
  for (idx_t c = 0; c < k; c += kLaneChunk)
    kBodies[static_cast<std::size_t>(std::min(kLaneChunk, k - c) - 1)](
        ind, val, rows, e0, e1, lo, hi, k, input + c, out + c);
}

/// The one partition body. Runs the window's stages of partition `part`
/// into `output` (partsize·k, interleaved), then copies its first
/// `rows_out` rows to `y`. Staged word i of a stage is lane s of
/// x[(map[i] − window.first())·k + s]; `input` holds buffsize·k words.
/// Decode must match a.storage (with_decoder picks it).
template <class Decode, class Window>
void partition_apply(const BufferedMatrix& a, idx_t part, const Window& window,
                     idx_t k, const real* x, real* input, real* output,
                     real* y, idx_t rows_out) {
  const idx_t partsize = a.config.partsize;
  const idx_t groups = a.num_groups();
  const auto kk = static_cast<std::size_t>(k);
  const idx_t first = window.first();
  std::fill_n(output, static_cast<std::size_t>(partsize) * kk, real{0});
  for (idx_t stage = window.stage_begin(part); stage < window.stage_end(part);
       ++stage) {
    const SlotWindow sw = window.slots(stage);
    const idx_t* const mp =
        a.map.data() + a.stagedispl[static_cast<std::size_t>(stage)];
    if (k == 1) {
#pragma omp simd
      for (idx_t i = sw.lo; i < sw.hi; ++i) input[i] = x[mp[i] - first];
    } else {
      for (idx_t i = sw.lo; i < sw.hi; ++i) {
        const real* const src =
            x + static_cast<std::size_t>(mp[i] - first) * kk;
        real* const dst = input + static_cast<std::size_t>(i) * kk;
#pragma omp simd
        for (idx_t s = 0; s < k; ++s) dst[s] = src[s];
      }
    }
    // Slots outside [lo, hi) were not gathered; a clipped stage reads only
    // each row's in-window run, located by binary search on its slots.
    const bool clip =
        sw.lo != 0 || sw.hi != a.stagenz[static_cast<std::size_t>(stage)];
    for (idx_t g = 0; g < groups; ++g) {
      const idx_t j0 = g * kSliceRows;
      const idx_t rows = a.group_rows(g);
      const auto cell = static_cast<std::size_t>(stage) *
                            static_cast<std::size_t>(groups) +
                        static_cast<std::size_t>(g);
      const nnz_t base = a.groupdispl[cell];
      const buf_idx_t* const gi = a.ind.data() + base;
      const typename Decode::Stored* const gv = Decode::values(a) + base;
      real* const out = output + static_cast<std::size_t>(j0) * kk;
      const idx_t* const len =
          a.rowlen.data() + static_cast<std::size_t>(stage) * partsize + j0;
      if (!clip) {
        const auto width =
            static_cast<idx_t>((a.groupdispl[cell + 1] - base) / rows);
        if (k == 1)
          group_k1<Decode, false>(gi, gv, rows, 0, width, nullptr, len, input,
                                  out);
        else
          group_block<Decode, false>(gi, gv, rows, 0, width, nullptr, len, k,
                                     input, out);
        continue;
      }
      alignas(64) idx_t lo[kSliceRows];
      alignas(64) idx_t hi[kSliceRows];
      idx_t e0 = std::numeric_limits<idx_t>::max();
      idx_t e1 = 0;
      for (idx_t r = 0; r < rows; ++r) {
        const RowRun run = a.row_run(stage, j0 + r);
        lo[r] = a.run_lower_bound(run, 0, sw.lo);
        hi[r] = a.run_lower_bound(run, lo[r], sw.hi);
        if (lo[r] < hi[r]) {
          e0 = std::min(e0, lo[r]);
          e1 = std::max(e1, hi[r]);
        }
      }
      if (k == 1)
        group_k1<Decode, true>(gi, gv, rows, e0, e1, lo, hi, input, out);
      else
        group_block<Decode, true>(gi, gv, rows, e0, e1, lo, hi, k, input,
                                  out);
    }
  }
  std::copy_n(output, static_cast<std::size_t>(rows_out) * kk, y);
}

/// Runs fn(part, input, output) over partitions [p0, p1) with a dynamic
/// schedule and per-thread buffers of the given capacities.
template <class Fn>
void run_dynamic(idx_t p0, idx_t p1, std::size_t input_cap,
                 std::size_t output_cap, const Fn& fn) {
#pragma omp parallel
  {
    AlignedVector<real> input(input_cap);
    AlignedVector<real> output(output_cap);
#pragma omp for schedule(dynamic)
    for (idx_t part = p0; part < p1; ++part)
      fn(part, input.data(), output.data());
  }
}

/// Runs fn(part, input, output) over every partition of `plan` (numbered
/// from 0) on its planned slot, with that slot's workspace buffers.
template <class Fn>
void run_planned(const ApplyPlan& plan, Workspace& ws, std::size_t input_cap,
                 std::size_t output_cap, const Fn& fn) {
  const int num_slots = plan.num_slots();
  MEMXCT_CHECK(ws.num_slots() >= num_slots);
  for (int s = 0; s < num_slots; ++s)
    MEMXCT_CHECK(ws.input(s).size() >= input_cap &&
                 ws.output(s).size() >= output_cap);
#pragma omp parallel
  {
    const int nthreads = omp_get_num_threads();
    for (int s = omp_get_thread_num(); s < num_slots; s += nthreads)
      for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s); ++part)
        fn(part, ws.input(s).data(), ws.output(s).data());
  }
}

/// y = A·x over k interleaved slices, every partition, dynamic schedule.
inline void apply_dynamic(const BufferedMatrix& a, idx_t k, const real* x,
                          real* y) {
  const FullWindow window{a};
  const auto kk = static_cast<std::size_t>(k);
  const idx_t partsize = a.config.partsize;
  with_decoder(a, [&](auto decode) {
    using Decode = decltype(decode);
    run_dynamic(0, a.num_partitions(),
                static_cast<std::size_t>(a.config.buffsize) * kk,
                static_cast<std::size_t>(partsize) * kk,
                [&](idx_t part, real* input, real* output) {
                  const idx_t r0 = part * partsize;
                  partition_apply<Decode>(
                      a, part, window, k, x, input, output,
                      y + static_cast<std::size_t>(r0) * kk,
                      std::min(partsize, a.num_rows - r0));
                });
  });
}

/// y = A·x over k interleaved slices, every partition, static plan.
inline void apply_planned(const BufferedMatrix& a, const ApplyPlan& plan,
                          Workspace& ws, idx_t k, const real* x, real* y) {
  MEMXCT_CHECK(plan.num_partitions() == a.num_partitions());
  const FullWindow window{a};
  const auto kk = static_cast<std::size_t>(k);
  const idx_t partsize = a.config.partsize;
  with_decoder(a, [&](auto decode) {
    using Decode = decltype(decode);
    run_planned(plan, ws, static_cast<std::size_t>(a.config.buffsize) * kk,
                static_cast<std::size_t>(partsize) * kk,
                [&](idx_t part, real* input, real* output) {
                  const idx_t r0 = part * partsize;
                  partition_apply<Decode>(
                      a, part, window, k, x, input, output,
                      y + static_cast<std::size_t>(r0) * kk,
                      std::min(partsize, a.num_rows - r0));
                });
  });
}

}  // namespace memxct::sparse::detail
