// Bit-parallel constrained-LCS length kernel: 64 DP cells per word.
//
// Let F[i][j] = max(solid[i][j], gap[i][j]) be the combined value of the
// exact two-layer DP (kernel_scalar.cpp). Three provable facts turn F into
// a classic Crochemore/Iliopoulos/Pinzon bit-vector LCS:
//
//  (1) Diagonal step lemma: F[i][j] <= F[i-1][j-1] + 1 for ALL cells. (Any
//      constrained common subsequence of the (i, j) prefixes either omits
//      q_i, omits d_j, or matches them to each other as its final pair;
//      each case is bounded by a neighbour + 1, and steps along a row or
//      column are at most 1 by the same argument.)
//  (2) A boundary match always achieves it: solid gets the candidate
//      F[i-1][j-1] + 1, so F[i][j] = F[i-1][j-1] + 1 exactly — and the
//      cell's best ends in a boundary (g = 0 below).
//  (3) A dummy match contributes solid[i-1][j-1] + 1, which equals
//      F[i-1][j-1] + 1 exactly when the diagonal cell's best is achievable
//      ending in a boundary, and is dominated by the up-neighbour
//      otherwise (gap - solid <= 1 everywhere).
//
// So F obeys the UNCONSTRAINED LCS recurrence over an *effective* match
// mask: boundary matches always count; a dummy match counts iff the
// diagonal cell has g = 0, where g[i][j] = F[i][j] - solid[i][j] in {0, 1}
// flags cells whose best is only achievable ending in a dummy. That is the
// paper's no-two-adjacent-dummies constraint folded into a second carry
// mask over the match vector — the bit-row mirror of the solid/gap layers
// of the scalar rolling DP.
//
// Row state, one bit per column (word-packed, bit j-1 <-> column j):
//   V   the CIPR row profile: bit 0 marks an increment position
//       (F[i][j] = F[i][j-1] + 1); F[i][n] = number of zero bits.
//       Update per row: U = V & Meff; V' = (V + U) | (V & ~Meff).
//   g   the ends-in-dummy-only flags of the current row.
//   R'  the previous row's increment positions (~V before the update).
//
// After the V update, with R = ~V' (current increments), the column steps
// C (c_j = F[i][j] - F[i-1][j]) follow c_j = !r'_j & (r_j | c_{j-1}).
// The new g row is the complement of the "solid reaches F" set
// s_j = a_j | (!r_j & s_{j-1}): seeds a are boundary-match cells (fact 2)
// and cells with c_j = 0 whose up-neighbour had g = 0, and zero-ness
// flows right while F stays flat. Both are instances of the first-order
// chain x_j = P_j & (inj_j | x_{j-1}) — the carry recurrence of binary
// addition with generate = P & inj and propagate = P, so one addition
// P + (inj & P) computes a whole word of it (prop_chain below; the
// carry-out feeds the next word). Note the naive "smear seeds with
// T = P + (A << 1)" trick is WRONG here: a seed injected onto a P = 0
// barrier position that simultaneously receives a carry produces
// 0 + 1 + 1 and re-launches the carry past the barrier.
//
// The kernel computes the EXACT two-layer optimum and serves both the
// signed and exact lcs_kernel entries: the paper's signed heuristic equals
// the exact optimum on every input ever tested (fidelity note F1, enforced
// continuously by tests/lcs_fuzz_test.cpp); if a divergence is ever found,
// the bit-parallel answer is the correct constrained optimum and the
// fixture-pinning protocol in that test applies.
//
// The early-exit band is bit-identical to the scalar exact kernel's: F is
// row-monotone, so the row maximum is F[i][n] = popcount of zeros in V,
// and the bail row and returned admissible bound match exactly.
#include <algorithm>
#include <bit>

#include "lcs/be_lcs.hpp"
#include "lcs/kernel_detail.hpp"

namespace bes::lcs_detail {

namespace {

using u64 = std::uint64_t;

// a + b + cin -> sum, with cin/carry-out in {0, 1}.
inline u64 add_carry(u64 a, u64 b, u64& carry) noexcept {
  const u64 s1 = a + b;
  const u64 c1 = static_cast<u64>(s1 < a);
  const u64 s2 = s1 + carry;
  carry = c1 | static_cast<u64>(s2 < s1);
  return s2;
}

// One word of the first-order chain x_j = P_j & (inj_j | x_{j-1}). This is
// the carry recurrence of binary addition with generate = p & inj and
// propagate = p, so the whole word is one addition p + (inj & p); the
// full-adder identity sum ^ p ^ (inj & p) recovers the carry INTO each bit,
// i.e. x_{j-1}, hence the >> 1. `carry` threads x_63 across words.
inline u64 prop_chain(u64 p, u64 inj, u64& carry) noexcept {
  const u64 y = inj & p;
  const u64 s1 = p + y;
  const u64 c1 = static_cast<u64>(s1 < p);
  const u64 sum = s1 + carry;
  const u64 out = c1 | static_cast<u64>(sum < s1);
  const u64 cin = sum ^ p ^ y;
  carry = out;
  return (cin >> 1) | (out << 63);
}

// Match-mask table: open-addressing map from packed token keys to
// word-packed column masks, in one flat block of mask_table_words() words:
// zero-mask (words) | keys (cap, 0 = empty) | masks (cap * words). A
// per-pair run builds it in context scratch (no per-pair allocation once
// the context has warmed up); a prepared_axis builds it once per query.
struct mask_table {
  const u64* zero;    // words of zeros, for absent tokens
  const u64* keys;
  const u64* masks;
  std::size_t cap;    // power of two
  std::size_t words;
  unsigned shift;     // hash bits -> slot index

  static std::size_t cap_for(std::size_t c_count) noexcept {
    return std::bit_ceil(std::max<std::size_t>(2 * c_count, 4));
  }

  mask_table(std::size_t c_count, const u64* storage) noexcept
      : zero(storage),
        keys(storage + (c_count + 63) / 64),
        masks(keys + cap_for(c_count)),
        cap(cap_for(c_count)),
        words((c_count + 63) / 64),
        shift(64 - static_cast<unsigned>(std::countr_zero(cap))) {}

  [[nodiscard]] std::size_t slot_of(u64 key) const noexcept {
    std::size_t s = static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull) >> shift);
    while (keys[s] != 0 && keys[s] != key) s = (s + 1) & (cap - 1);
    return s;
  }

  [[nodiscard]] const u64* find(u64 key) const noexcept {
    const std::size_t s = slot_of(key);
    return keys[s] == key ? masks + s * words : zero;
  }
};

// The row loop over `state` (V | g | R', table.words each). With
// one_word = true the row is a single word known at compile time: the word
// loop and its cross-word carries fold away and the state lives in
// registers (`state` is unused) — the common case of scene-sized axes.
template <bool banded, bool one_word>
std::size_t bitparallel_rows(std::span<const token> rows,
                             std::size_t c_count, const mask_table& table,
                             std::size_t min_needed, u64* state) {
  const std::size_t r_count = rows.size();
  const std::size_t words = one_word ? 1 : table.words;
  u64 local[3];
  u64* v = one_word ? local : state;
  u64* g = v + words;
  u64* rp = g + words;

  // Row 0: no increments (V all ones, tail included so the tail never
  // produces phantom zeros), no steps, nothing ends in a dummy.
  std::fill(v, v + words, ~u64{0});
  std::fill(g, g + 2 * words, u64{0});  // g, R'

  const u64* dummy_mask = table.find(token_key(token::dummy()));
  const u64 tail_mask = c_count % 64 == 0
                            ? ~u64{0}
                            : (u64{1} << (c_count % 64)) - 1;

  for (std::size_t i = 1; i <= r_count; ++i) {
    const token qi = rows[i - 1];
    const bool dummy_row = qi.is_dummy();
    const u64* m_row = dummy_row ? dummy_mask : table.find(token_key(qi));
    // Word-loop carries: g << 1, the V+U add, the two propagation chains,
    // and the seed << 1 shift feeding the second chain.
    u64 sh_g = 0, add_v = 0, add_c = 0, sh_z = 0, add_z = 0;
    [[maybe_unused]] std::size_t row_zeros = 0;
    for (std::size_t k = 0; k < words; ++k) {
      const u64 m = m_row[k];
      const u64 g_prev = g[k];
      const u64 v_prev = v[k];
      const u64 r_prev = rp[k];

      // Effective match mask: dummy matches are vetoed where the diagonal
      // cell (bit shifted up by one) only reaches F ending in a dummy.
      const u64 g_diag = (g_prev << 1) | sh_g;
      sh_g = g_prev >> 63;
      const u64 meff = dummy_row ? m & ~g_diag : m;

      // CIPR profile update.
      const u64 u = v_prev & meff;
      const u64 v_new = add_carry(v_prev, u, add_v) | (v_prev & ~meff);
      v[k] = v_new;
      const u64 r = ~v_new;  // tail bits of v_new stay 1, so r's tail is 0
      if constexpr (banded) {
        row_zeros += static_cast<std::size_t>(std::popcount(r));
      }

      // Column steps: c_j = !r'_j & (r_j | c_{j-1}).
      const u64 c_col = prop_chain(~r_prev, r, add_c);

      // New g row: cells where solid CANNOT reach F are the complement of
      // the seed-and-propagate set s_j = a_j | (!r_j & s_{j-1}) — seeds are
      // boundary matches plus cells with a flat column step over a g = 0
      // up-neighbour; zero-ness flows right through flat row steps.
      const u64 bm = dummy_row ? u64{0} : m;
      const u64 a_z = bm | (~c_col & ~g_prev);
      const u64 zsh = (a_z << 1) | sh_z;
      sh_z = a_z >> 63;
      const u64 solid_ok = a_z | prop_chain(v_new, zsh, add_z);
      const u64 mask = k + 1 == words ? tail_mask : ~u64{0};
      g[k] = ~solid_ok & mask;
      rp[k] = r;
    }
    if constexpr (banded) {
      const std::size_t achievable = row_zeros + (r_count - i);
      if (achievable < min_needed) return achievable;
    }
  }

  std::size_t length = 0;
  for (std::size_t k = 0; k < words; ++k) {
    length += static_cast<std::size_t>(std::popcount(~v[k]));
  }
  return length;
}

}  // namespace

std::size_t mask_table_words(std::size_t cols) noexcept {
  const std::size_t words = (cols + 63) / 64;
  return words + mask_table::cap_for(cols) * (1 + words);
}

void build_mask_table(std::span<const token> cols, u64* storage) noexcept {
  const mask_table table(cols.size(), storage);
  u64* keys = storage + table.words;
  u64* masks = keys + table.cap;
  std::fill(storage, masks, u64{0});  // zero-mask, keys
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const u64 key = token_key(cols[j]);
    const std::size_t s = table.slot_of(key);
    if (keys[s] == 0) {
      keys[s] = key;
      std::fill(masks + s * table.words, masks + (s + 1) * table.words,
                u64{0});
    }
    masks[s * table.words + j / 64] |= u64{1} << (j % 64);
  }
}

std::size_t bitparallel_exact(std::span<const token> rows,
                              std::span<const token> cols,
                              std::size_t min_needed, lcs_context& ctx) {
  const std::size_t c_count = cols.size();
  if (rows.empty() || c_count == 0) return 0;
  if (min_needed > c_count) return c_count;  // lcs <= min(m, n)
  // Scratch layout: V | g | R' | match-mask table.
  const std::size_t words = (c_count + 63) / 64;
  u64* state = ctx.word_cells(3 * words + mask_table_words(c_count)).data();
  build_mask_table(cols, state + 3 * words);
  const mask_table table(c_count, state + 3 * words);
  if (words == 1) {
    return min_needed == 0
               ? bitparallel_rows<false, true>(rows, c_count, table, 0, state)
               : bitparallel_rows<true, true>(rows, c_count, table,
                                              min_needed, state);
  }
  return min_needed == 0
             ? bitparallel_rows<false, false>(rows, c_count, table, 0, state)
             : bitparallel_rows<true, false>(rows, c_count, table, min_needed,
                                             state);
}

std::size_t bitparallel_prepared(std::span<const token> rows,
                                 const prepared_axis& cols, lcs_context& ctx) {
  const std::size_t c_count = cols.size();
  if (rows.empty() || c_count == 0) return 0;
  const mask_table table(c_count, cols.mask_words().data());
  if (table.words == 1) {
    return bitparallel_rows<false, true>(rows, c_count, table, 0, nullptr);
  }
  u64* state = ctx.word_cells(3 * table.words).data();
  return bitparallel_rows<false, false>(rows, c_count, table, 0, state);
}

}  // namespace bes::lcs_detail
