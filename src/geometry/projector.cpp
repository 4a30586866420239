#include "geometry/projector.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "geometry/siddon.hpp"

namespace memxct::geometry {

sparse::CsrMatrix build_projection_matrix(
    const Geometry& g, const hilbert::Ordering& sinogram_order,
    const hilbert::Ordering& tomogram_order) {
  g.validate();
  MEMXCT_CHECK(sinogram_order.extent() == g.sinogram_extent());
  MEMXCT_CHECK(tomogram_order.extent() == g.tomogram_extent());

  const idx_t num_rays = static_cast<idx_t>(g.sinogram_extent().size());
  const idx_t num_pixels = static_cast<idx_t>(g.tomogram_extent().size());
  const auto& tomo_to_ordered = tomogram_order.to_ordered();

  // Two passes: count row lengths, then fill — avoids materializing
  // per-row vectors for hundreds of millions of nonzeros.
  sparse::CsrMatrix a;
  a.num_rows = num_rays;
  a.num_cols = num_pixels;
  a.displ.assign(static_cast<std::size_t>(num_rays) + 1, 0);

#pragma omp parallel
  {
    std::vector<std::pair<idx_t, real>> segments;
#pragma omp for schedule(dynamic, 64)
    for (idx_t i = 0; i < num_rays; ++i) {
      const Cell rc = sinogram_order.cell(i);
      trace_ray(g, rc.row, rc.col, segments);
      a.displ[static_cast<std::size_t>(i) + 1] =
          static_cast<nnz_t>(segments.size());
    }
  }
  for (idx_t i = 0; i < num_rays; ++i)
    a.displ[static_cast<std::size_t>(i) + 1] +=
        a.displ[static_cast<std::size_t>(i)];

  a.ind.resize(static_cast<std::size_t>(a.displ.back()));
  a.val.resize(static_cast<std::size_t>(a.displ.back()));

  // Each row is sorted by ordered column with a stable two-digit LSD
  // counting sort: keys are below num_pixels, so each digit holds half of
  // the key bits, rounded up, and a row costs two scatters plus two
  // histogram scans instead of a comparison sort.
  const int key_bits =
      std::bit_width(static_cast<std::uint64_t>(num_pixels - 1));
  const int digit_bits = (key_bits + 1) / 2;
  const auto radix = std::size_t{1} << digit_bits;
  const idx_t low_mask = static_cast<idx_t>(radix) - 1;

#pragma omp parallel
  {
    std::vector<std::pair<idx_t, real>> segments;
    std::vector<std::pair<idx_t, real>> low_sorted;
    std::vector<nnz_t> low_start(radix);
    std::vector<nnz_t> high_start(radix);
#pragma omp for schedule(dynamic, 64)
    for (idx_t i = 0; i < num_rays; ++i) {
      const Cell rc = sinogram_order.cell(i);
      trace_ray(g, rc.row, rc.col, segments);
      const nnz_t k = a.displ[static_cast<std::size_t>(i)];
      const nnz_t out = k + static_cast<nnz_t>(segments.size());
      // trace_ray visits each pixel at most once, so the keys are distinct;
      // the check guards against the fill pass disagreeing with the count.
      MEMXCT_CHECK(out == a.displ[static_cast<std::size_t>(i) + 1]);

      std::fill(low_start.begin(), low_start.end(), 0);
      std::fill(high_start.begin(), high_start.end(), 0);
      for (auto& seg : segments) {
        seg.first = tomo_to_ordered[static_cast<std::size_t>(seg.first)];
        ++low_start[static_cast<std::size_t>(seg.first & low_mask)];
        ++high_start[static_cast<std::size_t>(seg.first >> digit_bits)];
      }
      nnz_t low_pos = 0;
      nnz_t high_pos = k;
      for (std::size_t d = 0; d < radix; ++d) {
        low_pos += std::exchange(low_start[d], low_pos);
        high_pos += std::exchange(high_start[d], high_pos);
      }

      // Low digit into scratch, then high digit straight into the row.
      low_sorted.resize(segments.size());
      for (const auto& seg : segments)
        low_sorted[static_cast<std::size_t>(
            low_start[static_cast<std::size_t>(seg.first & low_mask)]++)] =
            seg;
      for (const auto& [col, length] : low_sorted) {
        const auto pos = static_cast<std::size_t>(
            high_start[static_cast<std::size_t>(col >> digit_bits)]++);
        a.ind[pos] = col;
        a.val[pos] = length;
      }
    }
  }
  return a;
}

sparse::CsrMatrix build_projection_matrix_natural(const Geometry& g) {
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::RowMajor);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::RowMajor);
  return build_projection_matrix(g, sino, tomo);
}

}  // namespace memxct::geometry
