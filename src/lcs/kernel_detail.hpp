// Internal declarations shared by the kernel variant translation units
// (kernel_scalar.cpp, kernel_bitparallel.cpp, kernel_avx2.cpp, kernel.cpp).
// Not installed, not part of the public surface: include lcs/kernel.hpp for
// dispatch and lcs/be_lcs.hpp for the entry points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/token.hpp"

namespace bes {
class lcs_context;
class prepared_axis;
}

namespace bes::lcs_detail {

// All functions follow the lcs_kernel calling convention: (rows, cols)
// pre-oriented with cols the shorter string, min_needed == 0 for unbounded.

// Scalar reference kernels (kernel_scalar.cpp).
std::size_t scalar_signed(std::span<const token> rows,
                          std::span<const token> cols, std::size_t min_needed,
                          lcs_context& ctx);
std::size_t scalar_exact(std::span<const token> rows,
                         std::span<const token> cols, std::size_t min_needed,
                         lcs_context& ctx);
double scalar_weighted(std::span<const token> rows, std::span<const token> cols,
                       double dummy_weight, lcs_context& ctx);
// Prepared entries (lcs_kernel::prepared_*): the unprepared scalar kernels,
// oriented by length exactly as be_lcs_length(query, candidate) orients them.
std::size_t scalar_prepared_signed(std::span<const token> rows,
                                   const prepared_axis& cols,
                                   lcs_context& ctx);
std::size_t scalar_prepared_exact(std::span<const token> rows,
                                  const prepared_axis& cols, lcs_context& ctx);

// Bit-parallel exact two-layer kernel (kernel_bitparallel.cpp); serves both
// the signed and exact lcs_kernel entries.
std::size_t bitparallel_exact(std::span<const token> rows,
                              std::span<const token> cols,
                              std::size_t min_needed, lcs_context& ctx);
// The same kernel over a prepared query's match-mask table (both prepared
// lcs_kernel entries).
std::size_t bitparallel_prepared(std::span<const token> rows,
                                 const prepared_axis& cols, lcs_context& ctx);

// The bit-parallel kernel's match-mask table over `cols`, laid out flat in
// mask_table_words(cols.size()) words (kernel_bitparallel.cpp).
// build_mask_table overwrites all of `storage`.
[[nodiscard]] std::size_t mask_table_words(std::size_t cols) noexcept;
void build_mask_table(std::span<const token> cols,
                      std::uint64_t* storage) noexcept;

// AVX2 SoA-row weighted kernel (kernel_avx2.cpp). avx2_available() reports
// whether this build compiled it AND the running CPU supports it; calling
// avx2_weighted when it returns false is undefined.
bool avx2_available() noexcept;
double avx2_weighted(std::span<const token> rows, std::span<const token> cols,
                     double dummy_weight, lcs_context& ctx);

// Tokens packed into nonzero 64-bit keys for the kernels' hash/compare
// tables (0 is reserved as the empty-slot sentinel).
[[nodiscard]] inline std::uint64_t token_key(token t) noexcept {
  if (t.is_dummy()) return 1;
  return (static_cast<std::uint64_t>(t.symbol()) << 3) |
         (static_cast<std::uint64_t>(t.kind()) << 2) | 2u;
}

}  // namespace bes::lcs_detail
