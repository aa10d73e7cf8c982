#include "support/test_support.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "geometry/rect.hpp"
#include "util/rng.hpp"

namespace bes::testsupport {

symbolic_image make_scene(std::uint64_t seed, alphabet& names,
                          const scene_opts& opts) {
  rng r(seed);
  scene_params params;
  params.width = opts.domain;
  params.height = opts.domain;
  params.object_count = opts.object_count;
  // Keep MBR extents inside the domain (the generator rejects oversized
  // extents) while preserving the default mix on large domains.
  params.min_extent = std::min(params.min_extent, opts.domain);
  params.max_extent =
      std::clamp(opts.domain / 4, params.min_extent, params.max_extent);
  params.symbol_pool =
      opts.unique_symbols ? opts.object_count : opts.symbol_pool;
  params.unique_symbols = opts.unique_symbols;
  params.disjoint = opts.disjoint;
  params.grid = opts.grid;
  return random_scene(params, r, names);
}

symbolic_image figure1_scene(alphabet& names) {
  symbolic_image img(12, 11);
  const symbol_id a = names.intern("A");
  const symbol_id b = names.intern("B");
  const symbol_id c = names.intern("C");
  img.add(a, rect::checked(2, 6, 3, 9));
  img.add(b, rect::checked(4, 10, 1, 5));
  img.add(c, rect::checked(6, 8, 5, 7));
  return img;
}

namespace {

// Best case of §3.1: one full-domain object, flush boundaries everywhere.
symbolic_image full_domain_scene(alphabet& names) {
  symbolic_image img(10, 10);
  img.add(names.intern("A"), rect::checked(0, 10, 0, 10));
  return img;
}

// Worst case of §3.1 for n=2: strictly nested intervals, gaps at both edges.
symbolic_image nested_scene(alphabet& names) {
  symbolic_image img(10, 10);
  img.add(names.intern("A"), rect::checked(1, 9, 1, 9));
  img.add(names.intern("B"), rect::checked(3, 7, 3, 7));
  return img;
}

// Coincident boundaries across distinct symbols: the no-dummy tie case.
symbolic_image stacked_scene(alphabet& names) {
  symbolic_image img(10, 10);
  img.add(names.intern("A"), rect::checked(2, 8, 2, 8));
  img.add(names.intern("B"), rect::checked(2, 8, 2, 8));
  return img;
}

}  // namespace

const std::vector<golden_fixture>& golden_fixtures() {
  static const std::vector<golden_fixture> fixtures = {
      {"figure1", &figure1_scene, "EAbEBbEAeCbECeEBeE", "EBbEAbEBeCbECeEAeE"},
      {"full_domain", &full_domain_scene, "AbEAe", "AbEAe"},
      {"nested", &nested_scene, "EAbEBbEBeEAeE", "EAbEBbEBeEAeE"},
      {"stacked", &stacked_scene, "EAbBbEAeBeE", "EAbBbEAeBeE"},
  };
  return fixtures;
}

::testing::AssertionResult axis_well_formed(const axis_string& s) {
  const std::vector<token>& toks = s.tokens();
  std::size_t dummies = 0;
  // symbol -> (begins seen, ends seen) over the prefix scanned so far.
  std::map<symbol_id, std::pair<std::size_t, std::size_t>> counts;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].is_dummy()) {
      ++dummies;
      if (i > 0 && toks[i - 1].is_dummy()) {
        return ::testing::AssertionFailure()
               << "adjacent dummies at positions " << (i - 1) << " and " << i;
      }
      continue;
    }
    auto& [begins, ends] = counts[toks[i].symbol()];
    if (toks[i].kind() == boundary_kind::begin) {
      ++begins;
    } else {
      ++ends;
      if (ends > begins) {
        return ::testing::AssertionFailure()
               << "end boundary of symbol " << toks[i].symbol()
               << " precedes its begin at position " << i;
      }
    }
  }
  for (const auto& [symbol, c] : counts) {
    if (c.first != c.second) {
      return ::testing::AssertionFailure()
             << "symbol " << symbol << " has " << c.first << " begins but "
             << c.second << " ends";
    }
  }
  if (dummies != s.dummy_count()) {
    return ::testing::AssertionFailure()
           << "dummy_count() reports " << s.dummy_count() << " but "
           << dummies << " dummies are present";
  }
  if (dummies + s.boundary_count() != s.size()) {
    return ::testing::AssertionFailure()
           << "dummy_count + boundary_count = "
           << (dummies + s.boundary_count()) << " != size " << s.size();
  }
  if (!s.well_formed()) {
    return ::testing::AssertionFailure()
           << "checker found no violation but well_formed() is false";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult be_string_invariants(const be_string2d& s,
                                                std::size_t object_count) {
  struct axis_case {
    const char* label;
    const axis_string* axis;
  };
  for (const axis_case& c :
       {axis_case{"x", &s.x}, axis_case{"y", &s.y}}) {
    if (auto ok = axis_well_formed(*c.axis); !ok) {
      return ::testing::AssertionFailure()
             << c.label << " axis: " << ok.message();
    }
    if (object_count == 0) {
      if (c.axis->size() != 1 || !c.axis->at(0).is_dummy()) {
        return ::testing::AssertionFailure()
               << c.label << " axis of an empty scene must be the single "
               << "dummy string, got " << c.axis->size() << " tokens";
      }
      continue;
    }
    if (c.axis->boundary_count() != 2 * object_count) {
      return ::testing::AssertionFailure()
             << c.label << " axis has " << c.axis->boundary_count()
             << " boundaries, expected " << 2 * object_count;
    }
    if (c.axis->size() < 2 * object_count ||
        c.axis->size() > 4 * object_count + 1) {
      return ::testing::AssertionFailure()
             << c.label << " axis has " << c.axis->size()
             << " tokens, outside [" << 2 * object_count << ", "
             << 4 * object_count + 1 << "]";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_counters(const search_stats& got,
                                         const search_stats& want) {
  const std::pair<const char*, std::pair<std::size_t, std::size_t>> fields[] = {
      {"scanned", {got.scanned, want.scanned}},
      {"scored", {got.scored, want.scored}},
      {"pruned", {got.pruned, want.pruned}},
      {"band_rejected", {got.band_rejected, want.band_rejected}},
      {"candidates_generated",
       {got.candidates_generated, want.candidates_generated}},
      {"cache_hits", {got.cache_hits, want.cache_hits}},
      {"cache_misses", {got.cache_misses, want.cache_misses}},
      {"cache_delta_refreshes",
       {got.cache_delta_refreshes, want.cache_delta_refreshes}},
      {"cache_delta_rescored",
       {got.cache_delta_rescored, want.cache_delta_rescored}},
  };
  for (const auto& [name, values] : fields) {
    if (values.first != values.second) {
      return ::testing::AssertionFailure()
             << name << ": " << values.first << " != " << values.second;
    }
  }
  if (got.plans != want.plans) {
    return ::testing::AssertionFailure() << "plans differ";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace bes::testsupport
