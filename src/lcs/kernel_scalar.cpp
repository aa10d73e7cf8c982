// The scalar reference kernels: rolling two-row DPs with a per-cell branch
// chain. Every other kernel variant is differentially fuzzed against these
// (tests/lcs_fuzz_test.cpp), and BES_LCS_KERNEL=scalar pins them for the
// portable CI leg. Moved here verbatim from be_lcs.cpp when the dispatch
// registry (lcs/kernel.hpp) was introduced.
#include <algorithm>
#include <cstdlib>

#include "lcs/be_lcs.hpp"
#include "lcs/kernel_detail.hpp"

namespace bes::lcs_detail {

namespace {

// The rolling form of Algorithm 2: cell (i, j) reads only row i-1 and the
// cells of row i already written, so two rows replace the full table. Rows
// run along `rows` and columns along `cols`; the dispatch layer orients
// `cols` as the shorter string, making the scratch O(min(m, n)). In the
// banded instantiation the loop bails once the best still-achievable final
// value — the row maximum plus one per remaining row (each row extends any
// subsequence by at most one token) — falls below min_needed, returning
// that admissible bound; the unbanded instantiation compiles the per-cell
// max tracking out of the hot loop entirely.
template <bool banded>
std::size_t signed_rolling(std::span<const token> rows,
                           std::span<const token> cols,
                           std::size_t min_needed, lcs_context& ctx) {
  const std::size_t r_count = rows.size();
  const std::size_t c_count = cols.size();
  if (r_count == 0 || c_count == 0) return 0;
  if (banded && min_needed > c_count) return c_count;  // lcs <= min(m, n)
  const std::size_t width = c_count + 1;
  std::span<std::int32_t> scratch = ctx.int_cells(2 * width);
  std::int32_t* prev = scratch.data();
  std::int32_t* cur = scratch.data() + width;
  std::fill(prev, prev + width, 0);
  cur[0] = 0;
  for (std::size_t i = 1; i <= r_count; ++i) {
    const token qi = rows[i - 1];
    [[maybe_unused]] std::int32_t row_max = 0;
    for (std::size_t j = 1; j <= c_count; ++j) {
      const std::int32_t up = prev[j];
      const std::int32_t left = cur[j - 1];
      std::int32_t value = std::abs(up) >= std::abs(left) ? up : left;
      if (qi == cols[j - 1]) {
        const std::int32_t diag = prev[j - 1];
        if (!qi.is_dummy() || diag >= 0) {
          const std::int32_t extended = std::abs(diag) + 1;
          if (extended > std::abs(value)) {
            value = qi.is_dummy() ? -extended : extended;
          }
        }
      }
      cur[j] = value;
      if constexpr (banded) {
        row_max = std::max(row_max, std::abs(value));
      }
    }
    if constexpr (banded) {
      const std::size_t achievable =
          static_cast<std::size_t>(row_max) + (r_count - i);
      if (achievable < min_needed) return achievable;
    }
    std::swap(prev, cur);
  }
  return static_cast<std::size_t>(std::abs(prev[c_count]));
}

// Rolling form of the exact two-layer DP: four rows (previous/current for
// the solid and gap layers) in one scratch block.
template <bool banded>
std::size_t exact_rolling(std::span<const token> rows,
                          std::span<const token> cols, std::size_t min_needed,
                          lcs_context& ctx) {
  const std::size_t r_count = rows.size();
  const std::size_t c_count = cols.size();
  if (r_count == 0 || c_count == 0) return 0;
  if (banded && min_needed > c_count) return c_count;
  const std::size_t width = c_count + 1;
  std::span<std::int32_t> scratch = ctx.int_cells(4 * width);
  std::int32_t* prev_solid = scratch.data();
  std::int32_t* prev_gap = scratch.data() + width;
  std::int32_t* cur_solid = scratch.data() + 2 * width;
  std::int32_t* cur_gap = scratch.data() + 3 * width;
  std::fill(prev_solid, prev_solid + 2 * width, 0);  // both prev layers
  cur_solid[0] = 0;
  cur_gap[0] = 0;
  for (std::size_t i = 1; i <= r_count; ++i) {
    const token qi = rows[i - 1];
    [[maybe_unused]] std::int32_t row_max = 0;
    for (std::size_t j = 1; j <= c_count; ++j) {
      std::int32_t best_solid = std::max(prev_solid[j], cur_solid[j - 1]);
      std::int32_t best_gap = std::max(prev_gap[j], cur_gap[j - 1]);
      if (qi == cols[j - 1]) {
        if (qi.is_dummy()) {
          best_gap = std::max(best_gap, prev_solid[j - 1] + 1);
        } else {
          best_solid = std::max(
              best_solid, std::max(prev_solid[j - 1], prev_gap[j - 1]) + 1);
        }
      }
      cur_solid[j] = best_solid;
      cur_gap[j] = best_gap;
      if constexpr (banded) {
        row_max = std::max(row_max, std::max(best_solid, best_gap));
      }
    }
    if constexpr (banded) {
      const std::size_t achievable =
          static_cast<std::size_t>(row_max) + (r_count - i);
      if (achievable < min_needed) return achievable;
    }
    std::swap(prev_solid, cur_solid);
    std::swap(prev_gap, cur_gap);
  }
  return static_cast<std::size_t>(
      std::max(prev_solid[c_count], prev_gap[c_count]));
}

}  // namespace

std::size_t scalar_signed(std::span<const token> rows,
                          std::span<const token> cols, std::size_t min_needed,
                          lcs_context& ctx) {
  return min_needed == 0 ? signed_rolling<false>(rows, cols, 0, ctx)
                         : signed_rolling<true>(rows, cols, min_needed, ctx);
}

std::size_t scalar_exact(std::span<const token> rows,
                         std::span<const token> cols, std::size_t min_needed,
                         lcs_context& ctx) {
  return min_needed == 0 ? exact_rolling<false>(rows, cols, 0, ctx)
                         : exact_rolling<true>(rows, cols, min_needed, ctx);
}

std::size_t scalar_prepared_signed(std::span<const token> rows,
                                   const prepared_axis& cols,
                                   lcs_context& ctx) {
  const std::span<const token> query = cols.tokens();
  return query.size() >= rows.size() ? scalar_signed(query, rows, 0, ctx)
                                     : scalar_signed(rows, query, 0, ctx);
}

std::size_t scalar_prepared_exact(std::span<const token> rows,
                                  const prepared_axis& cols,
                                  lcs_context& ctx) {
  const std::span<const token> query = cols.tokens();
  return query.size() >= rows.size() ? scalar_exact(query, rows, 0, ctx)
                                     : scalar_exact(rows, query, 0, ctx);
}

// Rolling form of the weighted two-layer DP. No early-exit band: nothing on
// the query path thresholds weighted scores.
double scalar_weighted(std::span<const token> rows, std::span<const token> cols,
                       double dummy_weight, lcs_context& ctx) {
  const std::size_t r_count = rows.size();
  const std::size_t c_count = cols.size();
  if (r_count == 0 || c_count == 0) return 0.0;
  const std::size_t width = c_count + 1;
  std::span<double> scratch = ctx.real_cells(4 * width);
  double* prev_solid = scratch.data();
  double* prev_gap = scratch.data() + width;
  double* cur_solid = scratch.data() + 2 * width;
  double* cur_gap = scratch.data() + 3 * width;
  std::fill(prev_solid, prev_solid + 2 * width, 0.0);
  cur_solid[0] = 0.0;
  cur_gap[0] = 0.0;
  for (std::size_t i = 1; i <= r_count; ++i) {
    const token qi = rows[i - 1];
    for (std::size_t j = 1; j <= c_count; ++j) {
      double best_solid = std::max(prev_solid[j], cur_solid[j - 1]);
      double best_gap = std::max(prev_gap[j], cur_gap[j - 1]);
      if (qi == cols[j - 1]) {
        if (qi.is_dummy()) {
          best_gap = std::max(best_gap, prev_solid[j - 1] + dummy_weight);
        } else {
          best_solid = std::max(
              best_solid, std::max(prev_solid[j - 1], prev_gap[j - 1]) + 1.0);
        }
      }
      cur_solid[j] = best_solid;
      cur_gap[j] = best_gap;
    }
    std::swap(prev_solid, cur_solid);
    std::swap(prev_gap, cur_gap);
  }
  return std::max(prev_solid[c_count], prev_gap[c_count]);
}

}  // namespace bes::lcs_detail
