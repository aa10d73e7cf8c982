#include "lcs/be_lcs.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "lcs/kernel.hpp"
#include "lcs/kernel_detail.hpp"

namespace bes {

std::span<std::int32_t> lcs_context::int_cells(std::size_t cells) {
  if (ints_.size() < cells) ints_.resize(cells);
  return std::span<std::int32_t>(ints_.data(), cells);
}

std::span<double> lcs_context::real_cells(std::size_t cells) {
  if (reals_.size() < cells) reals_.resize(cells);
  return std::span<double>(reals_.data(), cells);
}

std::span<std::uint64_t> lcs_context::word_cells(std::size_t cells) {
  if (words_.size() < cells) words_.resize(cells);
  return std::span<std::uint64_t>(words_.data(), cells);
}

lcs_context::lcs_context() : kernel_(&active_lcs_kernel()) {}

lcs_context::lcs_context(const lcs_kernel& kernel) : kernel_(&kernel) {}

lcs_context& lcs_context::thread_local_instance() {
  thread_local lcs_context ctx;
  return ctx;
}

prepared_axis::prepared_axis(std::span<const token> tokens)
    : tokens_(tokens.begin(), tokens.end()),
      mask_words_(lcs_detail::mask_table_words(tokens.size())) {
  lcs_detail::build_mask_table(tokens_, mask_words_.data());
}

be_lcs_table be_lcs_fill(std::span<const token> q, std::span<const token> d) {
  const std::size_t m = q.size();
  const std::size_t n = d.size();
  be_lcs_table w(m, n);
  // First row and column are zero-initialized (paper lines 7-11).
  for (std::size_t i = 1; i <= m; ++i) {
    const token qi = q[i - 1];
    for (std::size_t j = 1; j <= n; ++j) {
      // Copy the up or left cell with the larger absolute value, sign
      // included (paper lines 16-19; up wins ties).
      const std::int32_t up = w.at(i - 1, j);
      const std::int32_t left = w.at(i, j - 1);
      std::int32_t value = std::abs(up) >= std::abs(left) ? up : left;
      // A symbol match may only extend the diagonal when it is a boundary
      // symbol, or a dummy whose diagonal predecessor does not already end
      // in a dummy (paper line 21); it must strictly improve (line 23).
      if (qi == d[j - 1]) {
        const std::int32_t diag = w.at(i - 1, j - 1);
        if (!qi.is_dummy() || diag >= 0) {
          const std::int32_t extended = std::abs(diag) + 1;
          if (extended > std::abs(value)) {
            value = qi.is_dummy() ? -extended : extended;
          }
        }
      }
      w.at(i, j) = value;
    }
  }
  return w;
}

namespace {

// Orients the kernels so the columns run along the shorter string. Both DPs
// are argument-symmetric: the exact DP provably (the constrained LCS is a
// symmetric function) and the signed DP empirically, fuzzed against both
// orientations and the exact DP in tests/lcs_fuzz_test.cpp. Kernels are
// dispatched through the context's bound kernel pointer (resolved once at
// context construction), so a scan pays no per-pair dispatch work.
template <typename Entry>
auto shorter_cols(std::span<const token> q, std::span<const token> d,
                  Entry entry) {
  return q.size() >= d.size() ? entry(q, d) : entry(d, q);
}

}  // namespace

std::size_t be_lcs_length(std::span<const token> q, std::span<const token> d) {
  return be_lcs_length(q, d, lcs_context::thread_local_instance());
}

std::size_t be_lcs_length(std::span<const token> q, std::span<const token> d,
                          lcs_context& ctx) {
  return shorter_cols(q, d, [&](auto rows, auto cols) {
    return ctx.kernel().signed_length(rows, cols, 0, ctx);
  });
}

std::size_t be_lcs_length(const prepared_axis& q, std::span<const token> d,
                          lcs_context& ctx) {
  return ctx.kernel().prepared_signed(d, q, ctx);
}

std::size_t be_lcs_length_bounded(std::span<const token> q,
                                  std::span<const token> d,
                                  std::size_t min_needed, lcs_context& ctx) {
  if (min_needed == 0) return be_lcs_length(q, d, ctx);
  return shorter_cols(q, d, [&](auto rows, auto cols) {
    return ctx.kernel().signed_length(rows, cols, min_needed, ctx);
  });
}

std::size_t be_lcs_length_exact(std::span<const token> q,
                                std::span<const token> d) {
  return be_lcs_length_exact(q, d, lcs_context::thread_local_instance());
}

std::size_t be_lcs_length_exact(std::span<const token> q,
                                std::span<const token> d, lcs_context& ctx) {
  return shorter_cols(q, d, [&](auto rows, auto cols) {
    return ctx.kernel().exact_length(rows, cols, 0, ctx);
  });
}

std::size_t be_lcs_length_exact(const prepared_axis& q,
                                std::span<const token> d, lcs_context& ctx) {
  return ctx.kernel().prepared_exact(d, q, ctx);
}

std::size_t be_lcs_length_exact_bounded(std::span<const token> q,
                                        std::span<const token> d,
                                        std::size_t min_needed,
                                        lcs_context& ctx) {
  if (min_needed == 0) return be_lcs_length_exact(q, d, ctx);
  return shorter_cols(q, d, [&](auto rows, auto cols) {
    return ctx.kernel().exact_length(rows, cols, min_needed, ctx);
  });
}

std::vector<token> be_lcs_string(std::span<const token> q,
                                 const be_lcs_table& w) {
  if (w.rows() != q.size() + 1) {
    throw std::invalid_argument("be_lcs_string: table does not match q");
  }
  std::vector<token> out;
  std::size_t i = w.rows() - 1;
  std::size_t j = w.cols() - 1;
  // Paper Algorithm 3, iteratively: prefer up, then left; a cell whose
  // absolute value exceeds both neighbours was set by a diagonal match and
  // contributes q[i-1] to the subsequence.
  while (i > 0 && j > 0) {
    const std::int32_t here = std::abs(w.at(i, j));
    if (here == std::abs(w.at(i - 1, j))) {
      --i;
    } else if (here == std::abs(w.at(i, j - 1))) {
      --j;
    } else {
      out.push_back(q[i - 1]);
      --i;
      --j;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<token> be_lcs_string(std::span<const token> q,
                                 std::span<const token> d) {
  return be_lcs_string(q, be_lcs_fill(q, d));
}

double be_lcs_weighted(std::span<const token> q, std::span<const token> d,
                       double dummy_weight) {
  return be_lcs_weighted(q, d, dummy_weight,
                         lcs_context::thread_local_instance());
}

double be_lcs_weighted(std::span<const token> q, std::span<const token> d,
                       double dummy_weight, lcs_context& ctx) {
  // The negated form rejects NaN too: a NaN weight would otherwise poison
  // every max() chain downstream while passing `< 0.0 || > 1.0`.
  if (!(dummy_weight >= 0.0 && dummy_weight <= 1.0)) {
    throw std::invalid_argument(
        "be_lcs_weighted: weight must be finite and in [0, 1]");
  }
  return shorter_cols(q, d, [&](auto rows, auto cols) {
    return ctx.kernel().weighted(rows, cols, dummy_weight, ctx);
  });
}

}  // namespace bes
