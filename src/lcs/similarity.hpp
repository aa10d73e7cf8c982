// Similarity evaluation between a query image and a database image (paper
// §4): the modified-LCS length of each axis pair, normalized and averaged.
//
// The paper's evaluation "can evaluate all similarity no matter how the
// matched LCS string whether appears all query objects or not, or whether
// appears all spatial relationships or not" — i.e. partial matches score
// proportionally instead of being filtered out. The normalization policy is
// configurable; the default divides by the query string length ("how much of
// the query appears in the database image"), which is the reading that makes
// sim(q, d) == 1 exactly when q is fully embedded in d.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "core/be_string.hpp"
#include "core/transform.hpp"
#include "lcs/be_lcs.hpp"

namespace bes {

enum class norm_kind : std::uint8_t {
  query,    // lcs / |q|            (paper default: partial-query emphasis)
  max_len,  // lcs / max(|q|, |d|)  (symmetric, penalizes extra db content)
  dice,     // 2*lcs / (|q| + |d|)  (Sorensen-Dice)
  min_len,  // lcs / min(|q|, |d|)  (containment)
};

// Validating conversion for norm_kind values arriving from outside the type
// system (report JSON, CLI flags): throws std::invalid_argument on anything
// without an enumerator instead of letting a raw static_cast smuggle an
// out-of-enum value into the scoring switch.
[[nodiscard]] norm_kind checked_norm_kind(long long raw);

struct similarity_options {
  norm_kind norm = norm_kind::query;
  // Use the exact two-layer DP instead of the paper's signed-table variant.
  bool exact_lcs = false;

  friend bool operator==(const similarity_options&,
                         const similarity_options&) = default;
};

// Normalized similarity of one axis pair, in [0, 1]. The context-less
// overloads score through the calling thread's lcs_context.
[[nodiscard]] double axis_similarity(std::span<const token> q,
                                     std::span<const token> d,
                                     const similarity_options& options = {});
[[nodiscard]] double axis_similarity(std::span<const token> q,
                                     std::span<const token> d,
                                     const similarity_options& options,
                                     lcs_context& ctx);

// Mean of the two axis similarities, in [0, 1].
[[nodiscard]] double similarity(const be_string2d& q, const be_string2d& d,
                                const similarity_options& options = {});
[[nodiscard]] double similarity(const be_string2d& q, const be_string2d& d,
                                const similarity_options& options,
                                lcs_context& ctx);

// Thresholded similarity with an in-DP early-exit band: identical to
// similarity() whenever the true score is >= min_score. When the score is
// provably < min_score the axis DPs bail as soon as their best-achievable
// remaining value cannot reach the per-axis requirement, and an upper bound
// on the true score (itself < min_score) is returned. So the result is
// always >= the true score, and exact whenever it is >= min_score — which
// makes it safe for top-k pruning: candidates whose result falls below the
// running k-th score can be discarded without ever finishing their DP.
// y_cap is an optional admissible cap on the y-axis similarity (e.g. from
// token histograms) that tightens the x-axis band — the x axis is scored
// first, so only the not-yet-scored axis benefits from a cap; 1.0 when
// unknown.
[[nodiscard]] double similarity_bounded(const be_string2d& q,
                                        const be_string2d& d,
                                        const similarity_options& options,
                                        double min_score, lcs_context& ctx,
                                        double y_cap = 1.0);

// Similarity under the best of the 8 linear transformations of the query
// (paper: rotation/reflection retrieval by string reversal).
struct transform_match {
  dihedral transform = dihedral::identity;
  double score = 0.0;
};

// A transform-invariant query, prepared once per search. Each of the 8
// dihedral variants takes its x and y strings from the same 4 axis strings
// — x, y, reverse_swap(x) and reverse_swap(y) (paper §4-5: rotation and
// reflection by string reversal alone) — so the query keeps just those 4,
// each as a prepared_axis, plus the fixed table of which two each variant
// uses. A candidate then costs 8 axis LCS runs (its x and y against each
// of the 4 strings) instead of 8 whole 2D comparisons. Build this ONCE per
// search and reuse it across database records, never per candidate.
struct query_transforms {
  enum axis : std::uint8_t { x, y, x_reversed, y_reversed };
  struct variant {
    axis x, y;
  };
  // The axes of apply(t, q), indexed by static_cast<std::size_t>(t);
  // mirrors apply() in core/transform.cpp.
  static constexpr std::array<variant, all_dihedral.size()> variants = {{
      {x, y},                    // identity
      {y, x_reversed},           // rot90
      {x_reversed, y_reversed},  // rot180
      {y_reversed, x},           // rot270
      {x, y_reversed},           // flip_x
      {x_reversed, y},           // flip_y
      {y, x},                    // transpose
      {y_reversed, x_reversed},  // anti_transpose
  }};

  std::array<prepared_axis, 4> axes;
};
[[nodiscard]] query_transforms precompute_transforms(const be_string2d& q);

// The best variant: bit-identical to scoring similarity(apply(t, q), d) for
// each t in all_dihedral order, a later variant replacing the best only on
// a strictly higher score (ties keep the earlier transform). Runs exactly 8
// unbanded axis LCS runs per call.
[[nodiscard]] transform_match best_transform_similarity(
    const query_transforms& q, const be_string2d& d,
    const similarity_options& options = {});
[[nodiscard]] transform_match best_transform_similarity(
    const query_transforms& q, const be_string2d& d,
    const similarity_options& options, lcs_context& ctx);

// Single-pair convenience: prepares the query internally. Scans over many
// records should hoist precompute_transforms out of the loop instead.
[[nodiscard]] transform_match best_transform_similarity(
    const be_string2d& q, const be_string2d& d,
    const similarity_options& options = {});

}  // namespace bes
