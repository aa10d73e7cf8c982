// CPU-dispatched LCS kernel registry.
//
// Every length/weighted kernel variant sits behind one table of function
// pointers (lcs_kernel). The registry enumerates the variants this build
// compiled AND this CPU can run; one of them is selected once at startup —
// the best available, unless the BES_LCS_KERNEL environment variable names
// another (that override exists for testing and for pinning the scalar
// reference in CI). Scans never re-resolve per pair: each lcs_context is
// bound to a kernel at construction (the active one by default), so the
// hot path costs one cached pointer indirection.
//
// Variants (in ascending preference order):
//   scalar       the rolling two-row reference kernels (always registered)
//   bitparallel  Crochemore/Hyyrö-style bit-vector DP packing 64 cells per
//                word for the length kernels (always registered; pure
//                uint64_t, no ISA extensions needed)
//   avx2         bitparallel lengths + an AVX2 SoA-row weighted kernel
//                (registered only when the CPU reports AVX2)
//
// Contract: every registered kernel returns bit-identical lengths, scores
// and early-exit band behavior for the exact/weighted entry points, and
// bit-identical *final* lengths for the signed and prepared entry points
// (the bit-parallel variants compute the exact two-layer optimum for all
// of them; see the note in kernel_bitparallel.cpp). tests/lcs_fuzz_test.cpp
// enforces this differentially for every kernel in the registry.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "core/token.hpp"

namespace bes {

class lcs_context;
class prepared_axis;

// One kernel variant. All functions take (rows, cols) PRE-ORIENTED by the
// dispatch layer so that cols runs along the shorter string (what keeps the
// scratch O(min(m, n)) and the bit rows narrow); both spans are non-empty.
// min_needed == 0 disables the early-exit band; otherwise the bounded
// contract of be_lcs_length_bounded applies.
struct lcs_kernel {
  std::string_view name;

  // The paper's signed-table recurrence (be_lcs_length). Bit-parallel
  // variants serve this entry with the exact two-layer optimum, which the
  // fuzz suite pins as equal to the signed heuristic on every tested input.
  std::size_t (*signed_length)(std::span<const token> rows,
                               std::span<const token> cols,
                               std::size_t min_needed, lcs_context& ctx);

  // The exact two-layer (solid/gap) recurrence (be_lcs_length_exact).
  std::size_t (*exact_length)(std::span<const token> rows,
                              std::span<const token> cols,
                              std::size_t min_needed, lcs_context& ctx);

  // The weighted two-layer recurrence (be_lcs_weighted); dummy_weight is
  // finite and in [0, 1] (validated by the entry point).
  double (*weighted)(std::span<const token> rows, std::span<const token> cols,
                     double dummy_weight, lcs_context& ctx);

  // Prepared-query forms of signed_length and exact_length, unbanded: the
  // candidate is the rows and the query the columns, whatever their
  // lengths, so the query's match-mask table (prepared_axis) is built once
  // per query instead of once per pair. The bit-parallel variants read that
  // table; their exact two-layer optimum does not depend on orientation.
  // The scalar variant orients by length as the unprepared entries do.
  std::size_t (*prepared_signed)(std::span<const token> rows,
                                 const prepared_axis& cols, lcs_context& ctx);
  std::size_t (*prepared_exact)(std::span<const token> rows,
                                const prepared_axis& cols, lcs_context& ctx);
};

// Every variant compiled into this build and runnable on this CPU, in
// ascending preference order. Never empty: scalar is always present.
[[nodiscard]] std::span<const lcs_kernel> registered_lcs_kernels();

// The registered kernel with this name, or nullptr.
[[nodiscard]] const lcs_kernel* find_lcs_kernel(std::string_view name);

// The kernel every default-constructed lcs_context binds to. Resolved once
// (first call): BES_LCS_KERNEL if set and registered (an unknown or
// unavailable name warns on stderr and falls through), else the most
// preferred registered kernel.
[[nodiscard]] const lcs_kernel& active_lcs_kernel();

}  // namespace bes
