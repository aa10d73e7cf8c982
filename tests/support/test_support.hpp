// Shared test support: seeded scene builders, golden BE-string fixtures, and
// invariant checkers. Every suite that needs a random or canonical scene
// should come through here so fixtures stay consistent across PRs.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/be_string.hpp"
#include "db/query.hpp"
#include "symbolic/alphabet.hpp"
#include "symbolic/symbolic_image.hpp"
#include "workload/scene_gen.hpp"

namespace bes::testsupport {

// Knobs for the seeded scene builder; defaults give a small mixed scene with
// repeated symbols and a few coincident boundaries.
struct scene_opts {
  std::size_t object_count = 8;
  int domain = 128;
  std::size_t symbol_pool = 6;
  bool unique_symbols = false;
  bool disjoint = false;
  int grid = 0;
};

// A scene that is a pure function of (seed, opts): the canonical way for a
// test to get reproducible random input.
[[nodiscard]] symbolic_image make_scene(std::uint64_t seed, alphabet& names,
                                        const scene_opts& opts = {});

// The paper's Figure 1 / §3.1 worked example.
[[nodiscard]] symbolic_image figure1_scene(alphabet& names);

// A golden fixture pins a scene to the paper-style BE-strings it must encode
// to. `build` interns its symbols into the supplied alphabet.
struct golden_fixture {
  std::string name;
  symbolic_image (*build)(alphabet&);
  std::string paper_x;  // expected paper_style(encode(scene).x)
  std::string paper_y;  // expected paper_style(encode(scene).y)
};

// The canonical golden set (Figure 1 plus the boundary-count extremes).
[[nodiscard]] const std::vector<golden_fixture>& golden_fixtures();

// Invariant checkers. These re-derive the axis-string well-formedness rules
// independently of axis_string::well_formed() and produce a diagnostic
// naming the first violated rule and its position:
//  * no two adjacent dummies,
//  * per-symbol begin/end boundary counts balance,
//  * in every prefix, ends never outnumber begins for any symbol,
//  * dummy_count / boundary_count partition the token count.
[[nodiscard]] ::testing::AssertionResult axis_well_formed(const axis_string& s);

// Axis invariants on both axes plus the paper §3.1 storage bounds for an
// n-object scene: boundary_count == 2n per axis and 2n <= size <= 4n+1
// (a 0-object axis is the single-dummy string).
[[nodiscard]] ::testing::AssertionResult be_string_invariants(
    const be_string2d& s, std::size_t object_count);

// Every deterministic search_stats counter of `got` equals `want`'s:
// scanned, scored, pruned, band_rejected, candidates_generated, the plans,
// and the four cache_* outcomes. A one-shard search must meet this against
// the flat search over the same records at threads == 1.
[[nodiscard]] ::testing::AssertionResult same_counters(
    const search_stats& got, const search_stats& want);

}  // namespace bes::testsupport
