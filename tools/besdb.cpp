// besdb — command-line front end to the BE-string image database.
//
//   besdb create  --out corpus.besdb [--images N --objects K --seed S
//                                     --format text|binary|sharded
//                                     --shards N]
//   besdb convert corpus.besdb --out corpus.bseg [--format text|binary|sharded]
//   besdb compact corpus.bseg  [--out other.bseg --recover]
//   besdb compact corpus.scrp  [--recover --min-dead F --min-live-per-shard N]
//   besdb shard   info  corpus.scrp
//   besdb shard   split corpus.scrp [--shards N]   (default: one more)
//   besdb shard   merge corpus.scrp [--shards N]   (default: one fewer)
//   besdb info    corpus.besdb
//   besdb show    corpus.besdb --id 3
//   besdb query   corpus.besdb --id 3 [--keep 0.6 --jitter 4 --top-k 5
//                                      --transform-invariant --explain]
//   besdb explain corpus.besdb --id 3 [--sketch "..." --top-k 5]
//   besdb spatial corpus.besdb --query "S0 left-of S1 & S2 above S0"
//   besdb window  corpus.besdb --x0 0 --x1 100 --y0 0 --y1 100 [--symbol S0]
//   besdb eval    [--out report.json] [--baseline eval/baseline.json
//                  --update-baseline] [--bases N --objects K --seed S ...]
//   besdb serve   --corpus corpus.scrp --shard I [--port P --threads N]
//   besdb connect --servers host:port,host:port --sketch "..."
//                 [--top-k K --deadline-ms MS --shutdown]
//
// Every subcommand prints plain-text tables to stdout. Exit codes:
//   0  success (including --help)
//   1  runtime failure: I/O errors, corrupt corpora, out-of-range data,
//      a failed eval baseline check
//   2  usage error: unknown subcommand, unknown or malformed flags, missing
//      or contradictory flag combinations — usage/diagnostics on stderr
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "core/encoder.hpp"
#include "core/serializer.hpp"
#include "net/coordinator.hpp"
#include "net/server.hpp"
#include "db/compaction.hpp"
#include "db/hybrid_index.hpp"
#include "db/planner.hpp"
#include "db/query.hpp"
#include "db/result_cache.hpp"
#include "db/segment.hpp"
#include "db/shard_storage.hpp"
#include "db/spatial_index.hpp"
#include "db/storage.hpp"
#include "eval/report.hpp"
#include "metrics/stats.hpp"
#include "reasoning/query_lang.hpp"
#include "symbolic/scene_text.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workload/query_gen.hpp"

namespace {

using namespace bes;

// The exit-code contract from the header comment. Usage errors are the
// ones a caller can fix by reading --help; runtime errors need the
// environment fixed instead.
constexpr int exit_ok = 0;
constexpr int exit_runtime = 1;
constexpr int exit_usage = 2;

// --format flag -> db_format; empty/unknown reported via stderr + nullopt.
// A supplied --shards N (N > 0) implies the sharded corpus format;
// combining it with an explicit non-sharded --format is contradictory and
// errors instead of silently dropping one of the flags.
std::optional<db_format> parse_format(const arg_parser& args) {
  const std::string name = args.get_string("format");
  if (args.was_supplied("shards") && args.get_int("shards") > 0) {
    if (args.was_supplied("format") && name != "sharded") {
      std::fprintf(stderr,
                   "--shards %lld contradicts --format %s (sharded corpora "
                   "only)\n",
                   static_cast<long long>(args.get_int("shards")),
                   name.c_str());
      return std::nullopt;
    }
    return db_format::sharded;
  }
  if (name == "text") return db_format::text;
  if (name == "binary") return db_format::binary;
  if (name == "sharded") return db_format::sharded;
  std::fprintf(stderr, "unknown --format '%s' (want text|binary|sharded)\n",
               name.c_str());
  return std::nullopt;
}

const char* format_name(db_format format) {
  switch (format) {
    case db_format::text: return "text";
    case db_format::binary: return "binary";
    case db_format::sharded: return "sharded";
  }
  return "?";
}

std::size_t shard_count_flag(const arg_parser& args) {
  const long long n = args.get_int("shards");
  return n > 0 ? static_cast<std::size_t>(n) : default_shard_count;
}

int cmd_create(arg_parser& args) {
  const std::string out = args.get_string("out");
  if (out.empty()) {
    std::fprintf(stderr, "create: --out is required\n");
    return exit_usage;
  }
  const auto format = parse_format(args);
  if (!format) return exit_usage;
  rng r(static_cast<std::uint64_t>(args.get_int("seed")));
  scene_params params;
  params.width = static_cast<int>(args.get_int("width"));
  params.height = static_cast<int>(args.get_int("height"));
  params.object_count = static_cast<std::size_t>(args.get_int("objects"));
  params.symbol_pool = static_cast<std::size_t>(args.get_int("pool"));
  params.max_extent = std::max(4, params.width / 6);
  const auto images = static_cast<std::size_t>(args.get_int("images"));
  if (*format == db_format::sharded) {
    // The streaming path: scenes go straight through the shard_writer, so
    // `--images 10000000` never holds a corpus in memory.
    alphabet symbols;
    shard_writer writer(out, shard_count_flag(args));
    for (std::size_t i = 0; i < images; ++i) {
      writer.append("scene" + std::to_string(i),
                    random_scene(params, r, symbols), symbols);
    }
    writer.finish();
    std::printf("streamed %zu images (%zu symbols) to %s [sharded x%zu]\n",
                images, symbols.size(), out.c_str(), shard_count_flag(args));
    return 0;
  }
  image_database db;
  for (std::size_t i = 0; i < images; ++i) {
    db.add("scene" + std::to_string(i), random_scene(params, r, db.symbols()));
  }
  save_database(db, out, *format);
  std::printf("wrote %zu images (%zu symbols) to %s [%s]\n", db.size(),
              db.symbols().size(), out.c_str(), format_name(*format));
  return 0;
}

// Re-serializes a database in any format (text <-> BSEG1 segment <-> SCRP1
// sharded corpus). The input format is autodetected; the output format
// comes from --format (or --shards, which implies sharded).
int cmd_convert(arg_parser& args) {
  const std::string in = args.positional()[1];
  const std::string out = args.get_string("out");
  if (out.empty()) {
    std::fprintf(stderr, "convert: --out is required\n");
    return exit_usage;
  }
  const auto format = parse_format(args);
  if (!format) return exit_usage;
  const image_database db = load_database(in);
  save_database(db, out, *format, shard_count_flag(args));
  std::printf("converted %s (%zu images) to %s [%s]\n", in.c_str(), db.size(),
              out.c_str(), format_name(*format));
  return 0;
}

// The SCRP1 shard workflow: info prints the manifest + per-shard balance;
// split/merge stream the corpus into one-more/one-fewer shards (or an
// explicit --shards target) through a temp directory, then swap it in.
int cmd_shard(arg_parser& args) {
  if (args.positional().size() < 3) {
    std::fprintf(stderr, "shard: usage: besdb shard <info|split|merge> DIR\n");
    return exit_usage;
  }
  const std::string& action = args.positional()[1];
  const std::string& dir = args.positional()[2];
  // split/merge swap the whole corpus DIRECTORY; a manifest-file path (fine
  // for info and every load) would make the swap replace just that file.
  if (action != "info" && !std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "shard %s: %s is not a corpus directory\n",
                 action.c_str(), dir.c_str());
    return 1;
  }
  const shard_manifest manifest = read_shard_manifest(dir);

  if (action == "info") {
    std::printf("sharded corpus: %s\n", dir.c_str());
    std::printf("shards  : %zu (x%zu ring replicas)\n", manifest.shard_count,
                manifest.ring_replicas);
    std::printf("images  : %llu\n",
                static_cast<unsigned long long>(manifest.images));
    text_table table({"shard", "segment", "images", "share"});
    for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
      const double share =
          manifest.images == 0
              ? 0.0
              : 100.0 * static_cast<double>(manifest.shards[s].images) /
                    static_cast<double>(manifest.images);
      table.add_row({std::to_string(s), manifest.shards[s].file,
                     std::to_string(manifest.shards[s].images),
                     fmt_double(share, 1) + "%"});
    }
    std::fputs(table.str().c_str(), stdout);
    return 0;
  }

  if (action != "split" && action != "merge") {
    std::fprintf(stderr, "shard: unknown action '%s' (want info|split|merge)\n",
                 action.c_str());
    return exit_usage;
  }
  std::size_t target = action == "split" ? manifest.shard_count + 1
                                         : manifest.shard_count - 1;
  if (args.was_supplied("shards")) {
    const long long flag = args.get_int("shards");
    target = flag > 0 ? static_cast<std::size_t>(flag) : 0;
    const bool valid = action == "split" ? target > manifest.shard_count
                                         : target < manifest.shard_count;
    if (target == 0 || !valid) {
      std::fprintf(stderr,
                   "shard %s: --shards %lld does not %s %zu shards\n",
                   action.c_str(), flag,
                   action == "split" ? "grow" : "shrink",
                   manifest.shard_count);
      return 1;
    }
  }
  if (target == 0) {
    std::fprintf(stderr, "shard merge: already at 1 shard\n");
    return 1;
  }

  // Consistent hashing: count the records that actually change shards —
  // pure ring math, no I/O.
  const shard_ring before(manifest.shard_count, manifest.ring_replicas);
  const shard_ring after(target, manifest.ring_replicas);
  std::uint64_t moved = 0;
  for (std::uint64_t g = 0; g < manifest.images; ++g) {
    const auto id = static_cast<image_id>(g);
    if (before.shard_of(id) != after.shard_of(id)) ++moved;
  }

  // Swap via two renames so no moment exists where the only copy of the
  // corpus is deleted: old is parked at .old until the new one is in place.
  // Siblings are derived through fs::path (a trailing slash on `dir` must
  // not nest the temp corpus inside the source).
  std::filesystem::path corpus(dir);
  if (corpus.filename().empty()) corpus = corpus.parent_path();
  const std::filesystem::path tmp =
      corpus.parent_path() / (corpus.filename().string() + ".reshard-tmp");
  const std::filesystem::path old =
      corpus.parent_path() / (corpus.filename().string() + ".reshard-old");
  std::filesystem::remove_all(tmp);
  std::filesystem::remove_all(old);
  reshard(corpus, tmp, target);
  std::filesystem::rename(corpus, old);
  std::filesystem::rename(tmp, corpus);
  std::filesystem::remove_all(old);
  std::printf(
      "resharded %s: %zu -> %zu shards, %llu of %llu records moved (%.1f%%)\n",
      dir.c_str(), manifest.shard_count, target,
      static_cast<unsigned long long>(moved),
      static_cast<unsigned long long>(manifest.images),
      manifest.images == 0 ? 0.0
                           : 100.0 * static_cast<double>(moved) /
                                 static_cast<double>(manifest.images));
  return 0;
}

// Folds tombstones out of a BSEG1 segment or an SCRP1 corpus (and, with
// --recover, salvages the longest valid prefix of truncated segments). Both
// paths write aside and rename, so an interrupted compact never destroys
// the input — rerunning `compact` on a corpus also repairs a compaction a
// crash cut short.
int cmd_compact(arg_parser& args) {
  const std::string in = args.positional()[1];
  segment_read_options options;
  options.recover_tail = args.get_bool("recover");
  const bool auto_mode = args.get_bool("auto");
  const db_format format = detect_format(in);
  compaction_stats stats;
  if (format == db_format::binary) {
    if (auto_mode) {
      std::fprintf(stderr,
                   "compact: --auto needs an SCRP1 corpus (a segment compact "
                   "always rewrites)\n");
      return exit_usage;
    }
    const std::string out =
        args.get_string("out").empty() ? in : args.get_string("out");
    stats = compact_segment(in, out, options);
    std::printf("compacted %s -> %s:\n", in.c_str(), out.c_str());
  } else if (format == db_format::sharded) {
    compaction_policy policy;
    policy.min_dead_fraction = args.get_double("min-dead");
    const long long per_shard = args.get_int("min-live-per-shard");
    policy.min_live_per_shard =
        per_shard > 0 ? static_cast<std::uint64_t>(per_shard) : 0;
    if (auto_mode) {
      // The background-trigger path: fire only when the footer-level dead
      // fraction crosses the maintenance threshold (no records read for a
      // "no" answer).
      maintenance_policy maintenance;
      maintenance.max_dead_fraction = args.get_double("max-dead-frac");
      const long long min_tomb = args.get_int("min-tombstones");
      maintenance.min_tombstones =
          min_tomb > 0 ? static_cast<std::uint64_t>(min_tomb) : 0;
      stats = maybe_compact_corpus(in, maintenance, policy, options);
    } else {
      stats = compact_corpus(in, policy, options);
    }
    if (!stats.compacted) {
      std::printf(
          "%s left alone: %llu tombstones of %llu records is below the "
          "compaction policy\n",
          in.c_str(), static_cast<unsigned long long>(stats.tombstones_folded),
          static_cast<unsigned long long>(stats.records_before));
      return 0;
    }
    std::printf("compacted %s in place:\n", in.c_str());
  } else {
    std::fprintf(stderr,
                 "compact: %s is a text database (use convert first)\n",
                 in.c_str());
    return 1;
  }
  text_table table({"metric", "before", "after"});
  table.add_row({"records", std::to_string(stats.records_before),
                 std::to_string(stats.records_after)});
  table.add_row({"bytes", std::to_string(stats.bytes_before),
                 std::to_string(stats.bytes_after)});
  table.add_row({"shards", std::to_string(stats.shards_before),
                 std::to_string(stats.shards_after)});
  std::fputs(table.str().c_str(), stdout);
  std::printf("tombstones folded: %llu%s\n",
              static_cast<unsigned long long>(stats.tombstones_folded),
              stats.recovered ? " (recovered truncated tail)" : "");
  return 0;
}

int cmd_info(const image_database& db) {
  sample_stats icons;
  sample_stats tokens;
  for (const db_record& rec : db.records()) {
    icons.add(static_cast<double>(rec.image.size()));
    tokens.add(static_cast<double>(rec.strings.total_tokens()));
  }
  std::printf("images : %zu\n", db.size());
  std::printf("symbols: %zu\n", db.symbols().size());
  if (db.size() > 0) {
    std::printf("icons  : %s\n", icons.summary(1).c_str());
    std::printf("tokens : %s (per image, both axes)\n",
                tokens.summary(1).c_str());
  }
  return 0;
}

int cmd_show(const image_database& db, arg_parser& args) {
  const auto id = static_cast<image_id>(args.get_int("id"));
  if (id >= db.size()) {
    std::fprintf(stderr, "show: id %u out of range (db has %zu images)\n", id,
                 db.size());
    return 1;
  }
  const db_record& rec = db.record(id);
  std::printf("image %u '%s'  %dx%d, %zu icons\n", rec.id, rec.name.c_str(),
              rec.image.width(), rec.image.height(), rec.image.size());
  text_table table({"symbol", "mbr"});
  for (const icon& obj : rec.image.icons()) {
    table.add_row({db.symbols().name_of(obj.symbol), to_string(obj.mbr)});
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\npaper notation : %s\n",
              paper_style(rec.strings, db.symbols()).c_str());
  std::printf("machine form   : %s\n",
              to_text(rec.strings, db.symbols()).c_str());
  return 0;
}

// Builds the query image for `query` / `explain` from --sketch or
// --id+distortion; false (with a message) when --id is out of range.
bool build_query(const image_database& db, arg_parser& args,
                 const char* command, symbolic_image& query,
                 std::string& provenance) {
  alphabet scratch = db.symbols();
  if (const std::string sketch = args.get_string("sketch"); !sketch.empty()) {
    // Query by sketch: "12x11: A 2 6 3 9; B 4 10 1 5".
    query = parse_scene(sketch, scratch);
    provenance = "sketch";
    return true;
  }
  const auto id = static_cast<image_id>(args.get_int("id"));
  if (id >= db.size()) {
    std::fprintf(stderr, "%s: id %u out of range\n", command, id);
    return false;
  }
  rng r(static_cast<std::uint64_t>(args.get_int("seed")));
  distortion_params d;
  d.keep_fraction = args.get_double("keep");
  d.jitter = static_cast<int>(args.get_int("jitter"));
  query = distort(db.record(id).image, d, r, scratch);
  provenance = "distorted from image " + std::to_string(id);
  return true;
}

// Prints the plan entries a planned search recorded: chosen access path,
// adaptive pad, and the planner's candidate estimate against what the path
// actually generated.
void print_plans(const search_stats& stats) {
  text_table table({"path", "pad", "est. candidates", "actual"});
  for (const planned_scan& plan : stats.plans) {
    table.add_row({std::string(to_string(plan.path)),
                   std::to_string(plan.pad),
                   std::to_string(plan.estimated_candidates),
                   std::to_string(plan.actual_candidates)});
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("scanned %zu = scored %zu + pruned %zu (of %zu generated)\n",
              stats.scanned, stats.scored, stats.pruned,
              stats.candidates_generated);
}

// The "--cache / --no-cache / --repeat" trio shared by query and connect.
// Returns false (usage error) on the contradictory pair; `repeats` is always
// >= 1 afterwards.
bool parse_cache_flags(arg_parser& args, const char* command, bool& use_cache,
                       std::size_t& repeats) {
  use_cache = args.get_bool("cache");
  if (use_cache && args.get_bool("no-cache")) {
    std::fprintf(stderr, "%s: --cache and --no-cache are contradictory\n",
                 command);
    return false;
  }
  const long long r = args.get_int("repeat");
  repeats = r > 1 ? static_cast<std::size_t>(r) : 1;
  return true;
}

void print_cache_stats(const result_cache_stats& stats) {
  std::printf("cache: hits %llu misses %llu delta-refreshes %llu "
              "evictions %llu\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.delta_refreshes),
              static_cast<unsigned long long>(stats.evictions));
}

int cmd_query(const image_database& db, arg_parser& args) {
  symbolic_image query(1, 1);
  std::string provenance;
  if (!build_query(db, args, "query", query, provenance)) return 1;

  query_options options;
  options.top_k = static_cast<std::size_t>(args.get_int("top-k"));
  options.transform_invariant = args.get_bool("transform-invariant");

  bool use_cache = false;
  std::size_t repeats = 1;
  if (!parse_cache_flags(args, "query", use_cache, repeats)) return exit_usage;

  const bool explain = args.get_bool("explain");
  std::vector<query_result> results;
  search_stats stats;
  result_cache cache;
  if (explain) {
    // Route through the planner so the printed plan is the one that ran.
    const spatial_index spatial(db);
    const hybrid_index hybrid(db);
    const planner_context ctx{&db, &spatial, &hybrid};
    results = search_planned(ctx, query, options, &stats);
  } else if (use_cache) {
    // --repeat with --cache is the point: the first pass misses and
    // populates, every later pass is a hit, and the stats line proves it.
    for (std::size_t i = 0; i < repeats; ++i) {
      results = search_cached(db, cache, query, options, &stats);
    }
  } else {
    for (std::size_t i = 0; i < repeats; ++i) {
      results = search(db, query, options);
    }
  }

  std::printf("query: %zu icons (%s)\n\n", query.size(), provenance.c_str());
  if (explain) {
    print_plans(stats);
    std::printf("\n");
  }
  text_table table({"rank", "image", "score", "transform"});
  int rank = 1;
  for (const query_result& result : results) {
    table.add_row({std::to_string(rank++), db.record(result.id).name,
                   fmt_double(result.score, 3),
                   std::string(to_string(result.transform))});
  }
  std::fputs(table.str().c_str(), stdout);
  if (use_cache) print_cache_stats(cache.stats());
  return 0;
}

// `besdb explain` — plan a query without caring about its results: show
// the access path the cost model picks, the adaptive pad, and how the
// candidate estimate compares with what the chosen path really generates.
int cmd_explain(const image_database& db, arg_parser& args) {
  symbolic_image query(1, 1);
  std::string provenance;
  if (!build_query(db, args, "explain", query, provenance)) return 1;

  query_options options;
  options.top_k = static_cast<std::size_t>(args.get_int("top-k"));
  options.transform_invariant = args.get_bool("transform-invariant");

  const spatial_index spatial(db);
  const hybrid_index hybrid(db);
  const planner_context ctx{&db, &spatial, &hybrid};

  search_stats stats;
  const auto results = search_planned(ctx, query, options, &stats);

  std::printf("query: %zu icons (%s), db: %zu images\n", query.size(),
              provenance.c_str(), db.size());
  std::printf("adaptive pad: %d\n\n", adaptive_pad(query));
  print_plans(stats);
  std::printf("top score: %s over %zu result%s\n",
              results.empty() ? "-" : fmt_double(results.front().score, 3).c_str(),
              results.size(), results.size() == 1 ? "" : "s");
  return 0;
}

int cmd_spatial(const image_database& db, arg_parser& args) {
  const std::string text = args.get_string("query");
  if (text.empty()) {
    std::fprintf(stderr, "spatial: --query is required\n");
    return exit_usage;
  }
  const spatial_query query = parse_query(text);
  const auto ranked =
      search_structured(db, query, args.get_bool("full-only"));
  text_table table({"image", "satisfied", "of"});
  std::size_t shown = 0;
  for (const structured_result& result : ranked) {
    if (shown++ == static_cast<std::size_t>(args.get_int("top-k"))) break;
    table.add_row({db.record(result.id).name, std::to_string(result.satisfied),
                   std::to_string(result.total)});
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_window(const image_database& db, arg_parser& args) {
  const rect window = rect::checked(static_cast<int>(args.get_int("x0")),
                                    static_cast<int>(args.get_int("x1")),
                                    static_cast<int>(args.get_int("y0")),
                                    static_cast<int>(args.get_int("y1")));
  const spatial_index index(db);
  std::optional<symbol_id> symbol;
  if (const std::string name = args.get_string("symbol"); !name.empty()) {
    if (!db.symbols().knows(name)) {
      std::fprintf(stderr, "window: unknown symbol '%s'\n", name.c_str());
      return 1;
    }
    symbol = db.symbols().id_of(name);
  }
  const auto hits = index.images_overlapping(window, symbol);
  std::printf("%zu images have %s icon overlapping %s:\n", hits.size(),
              symbol ? ("a '" + args.get_string("symbol") + "'").c_str()
                     : "an",
              to_string(window).c_str());
  for (image_id id : hits) {
    std::printf("  %s\n", db.record(id).name.c_str());
  }
  return 0;
}

// Runs the retrieval-quality harness over the seeded eval corpus, prints a
// per-cell summary table, and optionally writes the JSON report, checks it
// against a baseline, or regenerates the baseline (see README "Measuring
// retrieval quality").
int cmd_eval(arg_parser& args) {
  const std::string baseline_path = args.get_string("baseline");
  const bool update = args.get_bool("update-baseline");
  if (update && baseline_path.empty()) {
    std::fprintf(stderr, "eval: --update-baseline needs --baseline PATH\n");
    return exit_usage;
  }

  // Corpus params layer: library defaults, overridden by the baseline's own
  // recorded params when one exists (checking must compare like with like,
  // and regenerating should keep the committed corpus unless told
  // otherwise), overridden by explicitly supplied flags.
  eval_corpus_params params;
  std::optional<eval_report> baseline_report;
  if (!baseline_path.empty() && std::filesystem::exists(baseline_path)) {
    baseline_report = report_from_json(read_json_file(baseline_path));
    params = baseline_report->params;
  } else if (!baseline_path.empty() && !update) {
    std::fprintf(stderr, "eval: baseline %s does not exist\n",
                 baseline_path.c_str());
    return 1;
  }
  if (args.was_supplied("seed")) {
    params.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  }
  if (args.was_supplied("bases")) {
    params.base_scenes = static_cast<std::size_t>(args.get_int("bases"));
  }
  if (args.was_supplied("objects")) {
    params.objects = static_cast<std::size_t>(args.get_int("objects"));
  }
  if (args.was_supplied("domain")) {
    params.domain = static_cast<int>(args.get_int("domain"));
  }
  if (args.was_supplied("pool")) {
    params.symbol_pool = static_cast<std::size_t>(args.get_int("pool"));
  }
  if (args.was_supplied("queries-per-base")) {
    params.queries_per_base =
        static_cast<std::size_t>(args.get_int("queries-per-base"));
  }

  // --threads sets worker parallelism (results are identical by
  // construction). The matrix's thread-scaling cells mirror the baseline
  // when checking — cell names embed the thread count, so the check must
  // run the baseline's matrix, not the flag's.
  const auto threads = static_cast<unsigned>(args.get_int("threads"));
  unsigned matrix_threads = threads;
  if (baseline_report && !update) {
    matrix_threads = 1;
    for (const eval_cell_result& cell : baseline_report->cells) {
      matrix_threads = std::max(matrix_threads, cell.config.threads);
    }
  }
  std::printf("eval: %zu base scenes x %zu family, %zu queries, seed %llu\n",
              params.base_scenes, eval_family_size,
              params.base_scenes * params.queries_per_base,
              static_cast<unsigned long long>(params.seed));
  const eval_corpus corpus = build_eval_corpus(params, threads);
  const auto matrix = default_eval_matrix(matrix_threads);
  const eval_report report = run_eval(corpus, matrix);

  text_table table({"cell", "P@1", "P@10", "MRR", "nDCG@10", "recall-vs-exh",
                    "scanned", "pruned"});
  for (const eval_cell_result& cell : report.cells) {
    table.add_row({cell.config.name(), fmt_double(cell.metrics.p_at_1, 3),
                   fmt_double(cell.metrics.p_at_10, 3),
                   fmt_double(cell.metrics.mrr, 3),
                   fmt_double(cell.metrics.ndcg_at_10, 3),
                   fmt_double(cell.metrics.recall_vs_exhaustive, 4),
                   std::to_string(cell.metrics.scanned),
                   std::to_string(cell.metrics.pruned)});
  }
  std::fputs(table.str().c_str(), stdout);

  if (const std::string out = args.get_string("out"); !out.empty()) {
    write_json_file(report_to_json(report), out);
    std::printf("\nwrote report to %s\n", out.c_str());
  }
  if (update) {
    write_json_file(make_baseline(report), baseline_path);
    std::printf("wrote baseline to %s\n", baseline_path.c_str());
    return 0;
  }
  if (!baseline_path.empty()) {
    const gate_result gate =
        check_against_baseline(report, read_json_file(baseline_path));
    if (!gate.pass) {
      std::fprintf(stderr, "\neval: baseline check FAILED:\n");
      for (const std::string& failure : gate.failures) {
        std::fprintf(stderr, "  %s\n", failure.c_str());
      }
      return 1;
    }
    std::printf("\nbaseline check passed (%s)\n", baseline_path.c_str());
  }
  return 0;
}

// `besdb serve` runs until a signal asks it to stop; the handler can only
// flip a flag, and the main loop polls it alongside the server's own stop
// state (a SHUTDOWN frame from a coordinator also ends the loop).
volatile std::sig_atomic_t g_serve_stop = 0;

extern "C" void serve_signal_handler(int) { g_serve_stop = 1; }

// Serves one shard of an SCRP1 corpus over the frame protocol. Loads ONLY
// that shard's segment (load_shard), so each fleet member reads its own
// file and nothing else.
int cmd_serve(arg_parser& args) {
  const std::string corpus = args.get_string("corpus");
  if (corpus.empty()) {
    std::fprintf(stderr, "serve: --corpus is required\n");
    return exit_usage;
  }
  const long long shard_flag = args.get_int("shard");
  if (shard_flag < 0) {
    std::fprintf(stderr, "serve: --shard must be >= 0\n");
    return exit_usage;
  }
  const auto shard = static_cast<std::size_t>(shard_flag);
  loaded_shard ls = load_shard(corpus, shard);

  net::server_options options;
  options.port = static_cast<std::uint16_t>(args.get_int("port"));
  if (const long long threads = args.get_int("threads"); threads > 0) {
    options.scan_threads = static_cast<unsigned>(threads);
  }
  net::shard_server server(ls.db, std::move(ls.global_ids),
                           static_cast<std::uint32_t>(shard), options);
  std::printf("serving shard %zu/%zu of %s (%zu images) on 127.0.0.1:%u\n",
              shard, ls.shard_count, corpus.c_str(), ls.db.size(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  while (g_serve_stop == 0 && !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  std::printf("shard %zu stopped\n", shard);
  return exit_ok;
}

// "--servers host:port,host:port,..." -> endpoints. Empty/malformed entries
// report via stderr and return an empty list (a usage error: no fleet, no
// query).
std::vector<net::endpoint> parse_servers(const std::string& spec) {
  std::vector<net::endpoint> endpoints;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    const std::size_t colon = entry.rfind(':');
    unsigned long port = 0;
    std::size_t digits = 0;
    if (colon != std::string::npos && colon + 1 < entry.size()) {
      try {
        port = std::stoul(entry.substr(colon + 1), &digits);
      } catch (const std::exception&) {
        digits = 0;
      }
    }
    if (colon == std::string::npos || colon == 0 ||
        digits != entry.size() - colon - 1 || port == 0 || port > 65535) {
      std::fprintf(stderr, "connect: malformed server '%s' (want host:port)\n",
                   entry.c_str());
      return {};
    }
    endpoints.push_back(net::endpoint{entry.substr(0, colon),
                                      static_cast<std::uint16_t>(port)});
  }
  if (endpoints.empty()) {
    std::fprintf(stderr, "connect: --servers host:port[,host:port...] is "
                         "required\n");
  }
  return endpoints;
}

// Scatters a sketch query across a serve fleet and prints the merged
// answer plus how every shard ended. The query alphabet comes from the
// fleet itself (fetch_symbols), so connect needs no local corpus at all.
int cmd_connect(arg_parser& args) {
  const std::vector<net::endpoint> servers =
      parse_servers(args.get_string("servers"));
  if (servers.empty()) return exit_usage;

  bool use_cache = false;
  std::size_t repeats = 1;
  if (!parse_cache_flags(args, "connect", use_cache, repeats)) {
    return exit_usage;
  }

  net::coordinator_options options;
  if (const long long ms = args.get_int("deadline-ms"); ms >= 0) {
    options.default_deadline_ms = static_cast<unsigned>(ms);
  }
  if (use_cache) options.cache_entries = 1024;
  net::coordinator coord(servers, options);

  if (args.get_bool("shutdown")) {
    coord.shutdown_servers();
    std::printf("asked %zu server%s to stop\n", servers.size(),
                servers.size() == 1 ? "" : "s");
    return exit_ok;
  }

  const std::string sketch = args.get_string("sketch");
  if (sketch.empty()) {
    std::fprintf(stderr, "connect: --sketch is required (or --shutdown)\n");
    return exit_usage;
  }
  alphabet symbols;
  for (const std::string& name : coord.fetch_symbols()) {
    symbols.intern(name);
  }
  const symbolic_image query = parse_scene(sketch, symbols);
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> query_symbols = distinct_symbols(query);

  query_options qopts;
  qopts.top_k = static_cast<std::size_t>(args.get_int("top-k"));
  qopts.transform_invariant = args.get_bool("transform-invariant");
  net::remote_result answer;
  for (std::size_t i = 0; i < repeats; ++i) {
    answer = coord.search(strings, query_symbols, qopts);
  }

  std::printf("query: %zu icons over %zu shards (%zu symbols)\n\n",
              query.size(), servers.size(), symbols.size());
  text_table table({"rank", "image", "score", "transform"});
  int rank = 1;
  for (const query_result& result : answer.results) {
    table.add_row({std::to_string(rank++), std::to_string(result.id),
                   fmt_double(result.score, 3),
                   std::string(to_string(result.transform))});
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nscanned %zu = scored %zu + pruned %zu (of %zu generated)\n",
              answer.stats.scanned, answer.stats.scored, answer.stats.pruned,
              answer.stats.candidates_generated);
  for (const shard_scan_status& status : answer.stats.shard_statuses) {
    std::printf("shard %u: %s\n", status.shard,
                std::string(to_string(status.state)).c_str());
  }
  if (use_cache) print_cache_stats(coord.cache_stats());
  if (answer.stats.degraded) {
    std::fprintf(stderr, "connect: answer is DEGRADED (see shard states)\n");
  }
  return exit_ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bes;
  arg_parser args(
      "besdb <create|convert|compact|shard|info|show|query|explain|spatial|"
      "window|eval|serve|connect> [db-file] [flags]");
  args.add_string("out", "", "create/convert/compact: output path");
  args.add_string("format", "text",
                  "create/convert: output format, text|binary (BSEG1)|sharded "
                  "(SCRP1 corpus directory)");
  args.add_int("shards", 0,
               "create/convert: shard count for the sharded format (> 0 "
               "implies --format sharded); shard split/merge: target count");
  args.add_bool("recover", false,
                "compact: salvage the valid prefix of a truncated segment");
  args.add_double("min-dead", 0.0,
                  "compact (corpus): skip the rewrite while the dead "
                  "fraction stays below this");
  args.add_int("min-live-per-shard", 0,
               "compact (corpus): merge shards until each holds at least "
               "this many live records");
  args.add_bool("auto", false,
                "compact (corpus): fire only when the dead fraction crosses "
                "--max-dead-frac (footer-level check, no records read)");
  args.add_double("max-dead-frac", 0.25,
                  "compact --auto: dead/total threshold that triggers the "
                  "rewrite");
  args.add_int("min-tombstones", 1,
               "compact --auto: never fire below this many tombstones");
  args.add_bool("cache", false,
                "query/connect: serve repeats through the result cache and "
                "print a cache-stats line");
  args.add_bool("no-cache", false,
                "query/connect: explicitly disable the result cache (the "
                "default; contradicts --cache)");
  args.add_int("repeat", 1,
               "query/connect: run the same search this many times (with "
               "--cache the repeats hit)");
  args.add_int("images", 30, "create: number of images");
  args.add_int("objects", 8, "create: icons per image");
  args.add_int("pool", 8, "create: symbol pool size");
  args.add_int("width", 256, "create: image width");
  args.add_int("height", 256, "create: image height");
  args.add_int("seed", 1, "create/query: RNG seed");
  args.add_int("id", 0, "show/query: image id");
  args.add_double("keep", 0.7, "query: fraction of icons kept");
  args.add_int("jitter", 4, "query: max icon displacement");
  args.add_string("sketch", "",
                  "query: a scene sketch like \"12x11: A 2 6 3 9; B 4 10 1 5\""
                  " (overrides --id)");
  args.add_int("top-k", 10, "query/spatial: results to print");
  args.add_bool("transform-invariant", false, "query: best of 8 reversals");
  args.add_bool("explain", false,
                "query: run through the cost-based planner and print the "
                "chosen access path, pad, and candidate counts");
  args.add_string("query", "", "spatial: query text, e.g. \"A left-of B\"");
  args.add_int("bases", 24, "eval: base scenes (each expands to a family)");
  args.add_int("domain", 256, "eval: scene domain (width = height)");
  args.add_int("queries-per-base", 2, "eval: distorted queries per base");
  args.add_int("threads", 4,
               "eval: worker threads (results are identical; a baseline "
               "check always runs the baseline's own matrix)");
  args.add_string("baseline", "",
                  "eval: baseline JSON to check against (its recorded corpus "
                  "params win unless overridden by explicit flags)");
  args.add_bool("update-baseline", false,
                "eval: rewrite --baseline from this run instead of checking");
  args.add_bool("full-only", false, "spatial: exact matches only");
  args.add_int("x0", 0, "window: x low");
  args.add_int("x1", 1, "window: x high");
  args.add_int("y0", 0, "window: y low");
  args.add_int("y1", 1, "window: y high");
  args.add_string("symbol", "", "window: restrict to a symbol");
  args.add_string("corpus", "", "serve: SCRP1 corpus directory");
  args.add_int("shard", 0, "serve: shard index to serve");
  args.add_int("port", 0, "serve: TCP port (0 = pick an ephemeral port)");
  args.add_string("servers", "",
                  "connect: comma-separated host:port shard server list");
  args.add_int("deadline-ms", 30000,
               "connect: per-query budget in ms (0 = wait forever)");
  args.add_bool("shutdown", false,
                "connect: ask every server to stop instead of querying");

  // Flag parsing has its own error class: unknown or malformed flags throw
  // std::invalid_argument and exit 2, while everything after dispatch that
  // throws is a runtime failure and exits 1.
  try {
    if (!args.parse(argc, argv)) {  // --help
      std::fputs(args.usage().c_str(), stdout);
      return exit_ok;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "besdb: %s\n%s", error.what(), args.usage().c_str());
    return exit_usage;
  }
  if (args.positional().empty()) {
    std::fputs(args.usage().c_str(), stderr);
    return exit_usage;
  }
  try {
    const std::string& command = args.positional()[0];
    const bool known =
        command == "create" || command == "convert" || command == "compact" ||
        command == "shard" || command == "info" || command == "show" ||
        command == "query" || command == "explain" || command == "spatial" ||
        command == "window" || command == "eval" || command == "serve" ||
        command == "connect";
    if (!known) {
      std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(),
                   args.usage().c_str());
      return exit_usage;
    }
    if (command == "create") return cmd_create(args);
    if (command == "eval") return cmd_eval(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "connect") return cmd_connect(args);
    if (args.positional().size() < 2) {
      std::fprintf(stderr, "%s: missing database file\n", command.c_str());
      return exit_usage;
    }
    if (command == "convert") return cmd_convert(args);
    if (command == "compact") return cmd_compact(args);
    if (command == "shard") return cmd_shard(args);
    const image_database db = load_database(args.positional()[1]);
    if (command == "info") return cmd_info(db);
    if (command == "show") return cmd_show(db, args);
    if (command == "query") return cmd_query(db, args);
    if (command == "explain") return cmd_explain(db, args);
    if (command == "spatial") return cmd_spatial(db, args);
    return cmd_window(db, args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "besdb: %s\n", error.what());
    return exit_runtime;
  }
}
