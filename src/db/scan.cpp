#include "db/scan.hpp"

#include <deque>
#include <optional>
#include <stdexcept>
#include <string>

#include "db/planner.hpp"
#include "db/result_cache.hpp"
#include "db/shard.hpp"
#include "util/parallel.hpp"

namespace bes::detail {

// -------------------------------------------------------------- shard_set

shard_set::shard_set(const sharded_database& db) : sharded_(&db) {
  many_.reserve(db.shard_count());
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    many_.push_back(shard_view{&db.shard_db(s),
                               id_map{.chunked = &db.shard_global_ids(s)},
                               &db.shard_spatial(s), &db.shard_hybrid(s)});
  }
}

std::size_t shard_set::id_count() const noexcept {
  return sharded_ != nullptr ? sharded_->size() : one_.db->size();
}

std::pair<std::size_t, image_id> shard_set::locate(image_id global) const {
  if (sharded_ == nullptr) return {0, global};
  // record() is the (shard, local) lookup; its id field IS the local id.
  return {sharded_->shard_of(global), sharded_->record(global).id};
}

std::vector<db_snapshot> shard_set::snapshot() const {
  std::vector<db_snapshot> snaps;
  snaps.reserve(size());
  for (const shard_view& shard : shards()) {
    snaps.push_back(shard.db->snapshot());
  }
  return snaps;
}

namespace {

void accumulate(search_stats& into, const search_stats& part) {
  into.scanned += part.scanned;
  into.scored += part.scored;
  into.pruned += part.pruned;
  into.band_rejected += part.band_rejected;
  into.candidates_generated += part.candidates_generated;
  into.plans.insert(into.plans.end(), part.plans.begin(), part.plans.end());
}

// Concatenate per-shard top-k lists and re-rank. Each part is already
// min_score-filtered and locally truncated; the merge only has to pick the
// global top_k by the same total order every scan used.
std::vector<query_result> merge_parts(
    std::span<std::vector<query_result>> parts, const query_options& options) {
  if (parts.size() == 1) return std::move(parts[0]);
  std::vector<query_result> all;
  for (auto& part : parts) all.insert(all.end(), part.begin(), part.end());
  std::sort(all.begin(), all.end(), result_better);
  if (options.top_k != 0 && all.size() > options.top_k) {
    all.resize(options.top_k);
  }
  return all;
}

// One (query, shard) item: generate the shard's candidates, then score them
// into `shared` (pruned scans) or return the shard's ranked part.
std::vector<query_result> scan_item(const shard_view& shard, std::size_t s,
                                    const scan_query& query,
                                    const query_plan& plan,
                                    const query_options& options,
                                    const query_options& inner,
                                    shared_topk* shared,
                                    const db_snapshot& snap,
                                    search_stats& stats) {
  std::vector<image_id> generated_ids;
  std::span<const image_id> ids;
  std::size_t generated = 0;
  std::optional<planned_scan> planned;
  if (!query.lists.empty()) {
    ids = query.lists[s];
    generated = ids.size();
  } else if (query.image != nullptr) {
    // Each shard is planned against ITS statistics: postings and density
    // differ per partition, so so may the chosen path.
    const access_plan chosen =
        plan_query(planner_context{shard.db, shard.spatial, shard.hybrid},
                   *query.image, query.symbols, options);
    access_path_stats gen;
    generated_ids =
        make_access_path(chosen.path, access_path_context{shard.db,
                                                          shard.spatial,
                                                          shard.hybrid})
            ->generate(path_probe{query.image, query.symbols, chosen.pad},
                       &gen);
    ids = generated_ids;
    generated = gen.candidates_generated;
    planned = planned_scan{chosen.path, chosen.pad,
                           chosen.estimated_candidates, ids.size()};
  } else {
    generated_ids = scan_ids(*shard.db, query.symbols, options, &generated);
    ids = generated_ids;
  }
  std::vector<query_result> out = scan_shard(
      *shard.db, *query.strings, ids, shard.globals,
      pruning_applies(options) ? &plan.histograms : nullptr,
      options.transform_invariant ? &plan.transforms : nullptr, inner, shared,
      &stats, &snap);
  // scan_shard resets `stats`; the generation accounting goes on top.
  stats.candidates_generated = generated;
  if (planned.has_value()) stats.plans.push_back(*planned);
  return out;
}

}  // namespace

std::vector<std::vector<query_result>> run_batch(
    const shard_set& set, std::span<const scan_query> queries,
    std::span<const db_snapshot> snaps, const query_options& options,
    std::vector<search_stats>* stats) {
  const std::size_t nq = queries.size();
  const std::size_t shards = set.size();
  std::vector<db_snapshot> captured;
  if (snaps.empty()) {
    captured = set.snapshot();
    snaps = captured;
  }
  if (snaps.size() != shards) {
    throw std::invalid_argument("search: snapshot/shard count mismatch");
  }
  std::vector<query_plan> plans(nq);
  parallel_for(nq, options.threads, [&](std::size_t q) {
    plans[q] = make_plan(*queries[q].strings, options);
  });

  // Scans of one query share that query's running top-k when the pruner
  // engages; exhaustive scans return ranked parts that merge afterwards.
  const bool pruned = pruning_applies(options);
  std::deque<shared_topk> heaps;
  for (std::size_t q = 0; pruned && q < nq; ++q) {
    heaps.emplace_back(options.top_k, options.min_score);
  }
  const std::size_t items = nq * shards;
  std::vector<std::vector<query_result>> parts(items);
  std::vector<search_stats> part_stats(items);
  // Few items (a single query, a small batch on few shards) leave threads
  // over; they go inside each scan instead of idling.
  const auto outer = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(options.threads, items)));
  query_options inner = options;
  inner.threads = std::max(1u, options.threads / outer);
  parallel_for(
      items, outer,
      [&](std::size_t item) {
        const std::size_t q = item / shards;
        const std::size_t s = item % shards;
        parts[item] =
            scan_item(set[s], s, queries[q], plans[q], options, inner,
                      pruned ? &heaps[q] : nullptr, snaps[s], part_stats[item]);
      },
      /*chunk=*/1);

  if (stats != nullptr) stats->assign(nq, search_stats{});
  std::vector<std::vector<query_result>> results(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    const std::span<std::vector<query_result>> mine(&parts[q * shards],
                                                    shards);
    results[q] = pruned ? heaps[q].take() : merge_parts(mine, options);
    for (std::size_t s = 0; stats != nullptr && s < shards; ++s) {
      accumulate((*stats)[q], part_stats[q * shards + s]);
    }
  }
  return results;
}

std::vector<query_result> run_query(const shard_set& set,
                                    const scan_query& query,
                                    std::span<const db_snapshot> snaps,
                                    const query_options& options,
                                    search_stats* stats) {
  std::vector<search_stats> one;
  auto results = run_batch(set, {&query, 1}, snaps, options,
                           stats != nullptr ? &one : nullptr);
  if (stats != nullptr) *stats = std::move(one[0]);
  return std::move(results[0]);
}

std::vector<query_result> run_candidates(const shard_set& set,
                                         const be_string2d& query_strings,
                                         std::span<const image_id> candidates,
                                         const query_options& options,
                                         search_stats* stats) {
  const std::size_t ids = set.id_count();
  for (image_id id : candidates) {
    if (id >= ids) {
      throw std::out_of_range("search_candidates: id " + std::to_string(id) +
                              " out of range");
    }
  }
  if (set.sharded() == nullptr) {
    return run_query(
        set, scan_query{.strings = &query_strings, .lists = {&candidates, 1}},
        {}, options, stats);
  }
  std::vector<std::vector<image_id>> local(set.size());
  for (image_id id : candidates) {
    const auto [s, l] = set.locate(id);
    local[s].push_back(l);
  }
  const std::vector<std::span<const image_id>> lists(local.begin(),
                                                     local.end());
  return run_query(set, scan_query{.strings = &query_strings, .lists = lists},
                   {}, options, stats);
}

namespace {

// How far `snaps` stands past an entry's cuts: nullopt when the shapes
// differ or some shard is behind the entry (the search is older than the
// entry), else the records appended since, summed over shards.
std::optional<std::uint64_t> appended_since(
    std::span<const cache_cut> cuts, std::span<const db_snapshot> snaps) {
  if (cuts.size() != snaps.size()) return std::nullopt;
  std::uint64_t appended = 0;
  for (std::size_t s = 0; s < cuts.size(); ++s) {
    if (snaps[s].visible < cuts[s].visible || snaps[s].epoch < cuts[s].epoch) {
      return std::nullopt;
    }
    appended += snaps[s].visible - cuts[s].visible;
  }
  return appended;
}

bool at_cuts(std::span<const cache_cut> cuts,
             std::span<const db_snapshot> snaps) {
  if (cuts.size() != snaps.size()) return false;
  for (std::size_t s = 0; s < cuts.size(); ++s) {
    if (cuts[s] != cache_cut{snaps[s].visible, snaps[s].epoch}) return false;
  }
  return true;
}

std::vector<cache_cut> cuts_of(std::span<const db_snapshot> snaps) {
  std::vector<cache_cut> cuts;
  cuts.reserve(snaps.size());
  for (const db_snapshot& s : snaps) cuts.push_back({s.visible, s.epoch});
  return cuts;
}

void store(result_cache& cache, const cache_key& key,
           std::vector<query_result> results,
           std::span<const db_snapshot> snaps, const query_options& options) {
  cache_entry entry;
  entry.complete = options.top_k == 0 || results.size() < options.top_k;
  entry.results = std::move(results);
  to_canonical_frame(entry.results, key.canon);
  entry.cuts = cuts_of(snaps);
  cache.put(key, std::move(entry));
}

// Delta-scan refresh: upgrade results valid at the entry's cuts to `snaps`
// by (1) re-checking the cached hits against each owning shard's tombstone
// view and (2) scoring only each shard's records appended since its cut,
// generated by the full scan's own rule. Nullopt when the entry cannot be
// upgraded without a full rescan — a deletion hit an INCOMPLETE entry (the
// deletion may promote a runner-up the entry never stored).
//
// With a FULL surviving top-k the k-th survivor's score is an admissible
// floor for the suffix: the min_score filter and the pruning threshold
// discard strictly-below scores only, and every record scoring below the
// k-th survivor is beaten by at least top_k alive records.
std::optional<std::vector<query_result>> delta_refresh(
    const shard_set& set, std::span<const db_snapshot> snaps,
    result_cache& cache, const cache_key& key, const cache_entry& entry,
    const be_string2d& query_strings, std::span<const symbol_id> query_symbols,
    const query_options& options, search_stats* stats) {
  std::vector<query_result> survivors = entry.results;
  from_canonical_frame(survivors, key.canon);
  std::size_t deaths = 0;
  std::erase_if(survivors, [&](const query_result& r) {
    const auto [s, local] = set.locate(r.id);
    const bool dead = !snaps[s].alive(local);
    deaths += dead ? 1 : 0;
    return dead;
  });
  if (deaths > 0 && !entry.complete) return std::nullopt;

  std::vector<std::vector<image_id>> suffix(set.size());
  for (std::size_t s = 0; s < set.size(); ++s) {
    for (image_id local :
         scan_ids(*set[s].db, query_symbols, options, nullptr)) {
      if (local >= entry.cuts[s].visible && local < snaps[s].visible) {
        suffix[s].push_back(local);
      }
    }
  }
  const std::vector<std::span<const image_id>> lists(suffix.begin(),
                                                     suffix.end());

  query_options delta_options = options;
  if (options.top_k > 0 && survivors.size() == options.top_k) {
    delta_options.min_score =
        std::max(options.min_score, survivors.back().score);
  }
  search_stats delta_stats;
  std::vector<query_result> fresh =
      run_query(set, scan_query{.strings = &query_strings, .lists = lists},
                snaps, delta_options, &delta_stats);

  std::vector<query_result> merged = std::move(survivors);
  merged.insert(merged.end(), fresh.begin(), fresh.end());
  merged = rank_results(std::move(merged), options);

  cache.note_delta_refresh(delta_stats.scanned);
  if (stats != nullptr) {
    *stats = delta_stats;
    stats->cache_delta_refreshes = 1;
    stats->cache_delta_rescored = delta_stats.scanned;
  }
  store(cache, key, merged, snaps, options);
  return merged;
}

}  // namespace

std::vector<query_result> run_cached(const shard_set& set,
                                     std::span<const db_snapshot> snaps,
                                     result_cache& cache,
                                     const be_string2d& query_strings,
                                     std::span<const symbol_id> query_symbols,
                                     const query_options& options,
                                     search_stats* stats) {
  if (snaps.size() != set.size()) {
    throw std::invalid_argument("search_cached: snapshot/shard count mismatch");
  }
  const sharded_database* sharded = set.sharded();
  const cache_key key =
      sharded == nullptr
          ? make_cache_key(query_strings, query_symbols, options,
                           cache_scope::flat, /*shard_count=*/1,
                           /*ring_replicas=*/0)
          : make_cache_key(
                query_strings, query_symbols, options, cache_scope::sharded,
                static_cast<std::uint32_t>(sharded->shard_count()),
                static_cast<std::uint32_t>(sharded->ring().replicas()));

  const std::optional<cache_entry> entry = cache.find(key);
  if (entry.has_value() && at_cuts(entry->cuts, snaps)) {
    cache.note_hit();
    if (stats != nullptr) {
      *stats = search_stats{};
      stats->cache_hits = 1;
    }
    std::vector<query_result> out = entry->results;
    from_canonical_frame(out, key.canon);
    return out;
  }
  const std::optional<std::uint64_t> appended =
      entry.has_value() ? appended_since(entry->cuts, snaps) : std::nullopt;
  if (appended.has_value() &&
      *appended <= cache.options().max_delta_records) {
    auto refreshed = delta_refresh(set, snaps, cache, key, *entry,
                                   query_strings, query_symbols, options,
                                   stats);
    if (refreshed.has_value()) return std::move(*refreshed);
  }

  // Miss (no entry, past the staleness budget, or not upgradeable): full
  // pinned scan. Store unless it would REGRESS a fresher entry — a search
  // pinned to an old snapshot must not overwrite results newer readers use.
  cache.note_miss();
  std::vector<query_result> out =
      run_query(set,
                scan_query{.strings = &query_strings, .symbols = query_symbols},
                snaps, options, stats);
  if (stats != nullptr) stats->cache_misses = 1;
  if (!entry.has_value() || entry->cuts.size() != snaps.size() ||
      appended.has_value()) {
    store(cache, key, out, snaps, options);
  }
  return out;
}

std::vector<scan_query> batch_queries(
    std::span<const be_string2d> strings,
    std::span<const std::vector<symbol_id>> symbols,
    std::span<const symbolic_image> images) {
  if (strings.size() != symbols.size()) {
    throw std::invalid_argument(
        "search_batch: queries and query_symbols sizes differ");
  }
  std::vector<scan_query> queries(strings.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = scan_query{.strings = &strings[i],
                            .symbols = symbols[i],
                            .image = images.empty() ? nullptr : &images[i]};
  }
  return queries;
}

}  // namespace bes::detail
