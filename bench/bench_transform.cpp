// E7 — rotation/reflection retrieval by string reversal (paper §4/§5,
// conclusions).
//
// Claim: "our approaches only need to reverse the string then apply the
// similarity retrieval ... This process does not need any conversion of
// spatial operators. It is more efficient and much easier then before."
// We verify all 8 dihedral variants are retrieved with score 1, compare
// the cost of the string-level transform against geometric re-encoding, and
// measure the per-candidate cost of best-of-8 scoring (E7c).
#include "bench_common.hpp"

#include "core/transform.hpp"
#include "db/query.hpp"

namespace bes {
namespace {

using benchsupport::make_scene;
using benchsupport::print_header;
using benchsupport::time_per_call;

void print_recovery_table() {
  print_header("E7a: retrieving every linear transformation of a scene",
               "all 8 variants score 1.0 under best-of-8 string reversal");
  alphabet names;
  const symbolic_image scene = make_scene(42, 10, names, 512);
  image_database db;
  db.symbols() = names;
  // Store every transformed variant plus distractors.
  for (dihedral t : all_dihedral) {
    db.add(std::string(to_string(t)), apply(t, scene));
  }
  rng r(1);
  scene_params params;
  params.width = 512;
  params.height = 512;
  params.object_count = 10;
  params.max_extent = 64;
  for (int i = 0; i < 8; ++i) {
    db.add("distractor" + std::to_string(i),
           random_scene(params, r, db.symbols()));
  }

  text_table table({"stored variant", "plain score", "best-of-8 score",
                    "recovered transform"});
  const be_string2d qs = encode(scene);
  for (std::size_t id = 0; id < 8; ++id) {
    const db_record& rec = db.record(static_cast<image_id>(id));
    const double plain = similarity(qs, rec.strings);
    const transform_match best = best_transform_similarity(qs, rec.strings);
    table.add_row({rec.name, fmt_double(plain, 3), fmt_double(best.score, 3),
                   std::string(to_string(best.transform))});
  }
  std::fputs(table.str().c_str(), stdout);
}

void print_cost_table() {
  print_header("E7b: string reversal vs geometric re-encoding",
               "string transform avoids re-sorting; no operator conversion");
  text_table table({"n", "string transform (us)", "geometric re-encode (us)",
                    "speedup"});
  for (std::size_t n : benchsupport::smoke_sweep({16u, 64u, 256u, 1024u, 4096u}, 64u)) {
    alphabet names;
    const symbolic_image scene = make_scene(n, n, names, 1 << 15);
    const be_string2d s = encode(scene);
    const double string_us = 1e6 * time_per_call([&] {
      benchmark::DoNotOptimize(apply(dihedral::rot90, s));
    });
    const double geom_us = 1e6 * time_per_call([&] {
      benchmark::DoNotOptimize(encode(apply(dihedral::rot90, scene)));
    });
    table.add_row({std::to_string(n), fmt_double(string_us, 1),
                   fmt_double(geom_us, 1),
                   fmt_double(geom_us / string_us, 2) + "x"});
  }
  std::fputs(table.str().c_str(), stdout);
}

// The best-of-8 score as 8 whole 2D comparisons: each variant built up
// front, both of its axes scored per candidate.
transform_match whole_variant_best(const std::vector<be_string2d>& variants,
                                   const be_string2d& d, lcs_context& ctx) {
  transform_match best;
  best.score = -1.0;
  for (dihedral t : all_dihedral) {
    const double score =
        similarity(variants[static_cast<std::size_t>(t)], d, {}, ctx);
    if (score > best.score) best = transform_match{t, score};
  }
  return best;
}

void print_pair_cost_table() {
  print_header("E7c: per-candidate cost of best-of-8 scoring",
               "rotation/reflection by string reversal alone: the 8 "
               "variants share 4 axis strings, so 8 axis LCS runs each");
  text_table table({"n", "8 whole variants (us)", "prepared query (us)",
                    "speedup"});
  for (std::size_t n : benchsupport::smoke_sweep({8u, 32u, 128u}, 8u)) {
    alphabet names;
    const be_string2d q = encode(make_scene(3, n, names, 4096));
    const be_string2d d = encode(make_scene(4, n, names, 4096));
    std::vector<be_string2d> variants;
    for (dihedral t : all_dihedral) variants.push_back(apply(t, q));
    const query_transforms prepared = precompute_transforms(q);
    lcs_context ctx;
    const double whole_us = 1e6 * time_per_call([&] {
      benchmark::DoNotOptimize(whole_variant_best(variants, d, ctx));
    });
    const double prepared_us = 1e6 * time_per_call([&] {
      benchmark::DoNotOptimize(
          best_transform_similarity(prepared, d, {}, ctx));
    });
    table.add_row({std::to_string(n), fmt_double(whole_us, 2),
                   fmt_double(prepared_us, 2),
                   fmt_double(whole_us / prepared_us, 2) + "x"});
  }
  std::fputs(table.str().c_str(), stdout);
}

void BM_StringTransform(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  alphabet names;
  const be_string2d s = encode(make_scene(1, n, names, 1 << 15));
  for (auto _ : state) {
    benchmark::DoNotOptimize(apply(dihedral::rot90, s));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StringTransform)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN);

void BM_GeometricReencode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  alphabet names;
  const symbolic_image scene = make_scene(2, n, names, 1 << 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(apply(dihedral::rot90, scene)));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GeometricReencode)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_BestOf8Similarity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  alphabet names;
  const be_string2d q = encode(make_scene(3, n, names, 4096));
  const be_string2d d = encode(make_scene(4, n, names, 4096));
  for (auto _ : state) {
    benchmark::DoNotOptimize(best_transform_similarity(q, d));
  }
}
BENCHMARK(BM_BestOf8Similarity)->RangeMultiplier(4)->Range(8, 128)
    ->Unit(benchmark::kMicrosecond);

// The scan's per-candidate cost: the query prepared once, outside the loop.
void BM_BestOf8SimilarityPrepared(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  alphabet names;
  const query_transforms q =
      precompute_transforms(encode(make_scene(3, n, names, 4096)));
  const be_string2d d = encode(make_scene(4, n, names, 4096));
  lcs_context ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(best_transform_similarity(q, d, {}, ctx));
  }
}
BENCHMARK(BM_BestOf8SimilarityPrepared)->RangeMultiplier(4)->Range(8, 128)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bes

int main(int argc, char** argv) {
  bes::print_recovery_table();
  bes::print_cost_table();
  bes::print_pair_cost_table();
  return bes::benchsupport::run_registered(argc, argv);
}
