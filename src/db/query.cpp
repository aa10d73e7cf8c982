#include "db/query.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "db/scan.hpp"
#include "util/parallel.hpp"

namespace bes {

namespace detail {

bool result_better(const query_result& a, const query_result& b) noexcept {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

std::vector<query_result> rank_results(std::vector<query_result> hits,
                                       const query_options& options) {
  std::erase_if(hits, [&](const query_result& r) {
    return r.score < options.min_score;
  });
  std::sort(hits.begin(), hits.end(), result_better);
  if (options.top_k != 0 && hits.size() > options.top_k) {
    hits.resize(options.top_k);
  }
  return hits;
}

bool pruning_applies(const query_options& options) {
  return options.histogram_pruning && !options.transform_invariant &&
         (options.top_k > 0 || options.min_score > 0.0);
}

shared_topk::shared_topk(std::size_t capacity, double min_score)
    : capacity_(capacity == 0 ? std::numeric_limits<std::size_t>::max()
                              : capacity),
      min_score_(min_score),
      kth_(min_score) {}

void shared_topk::insert(const query_result& r) {
  std::lock_guard lock(mutex_);
  const auto pos = std::lower_bound(top_.begin(), top_.end(), r, result_better);
  top_.insert(pos, r);
  if (top_.size() > capacity_) top_.pop_back();
  if (top_.size() == capacity_) {
    // The k-th score is monotone non-decreasing once the heap is full, so
    // a stale read elsewhere is merely a weaker (still admissible) bound.
    kth_.store(top_.back().score, std::memory_order_relaxed);
  }
}

std::vector<query_result> shared_topk::take() { return std::move(top_); }

}  // namespace detail

std::string_view to_string(shard_scan_state state) noexcept {
  switch (state) {
    case shard_scan_state::ok: return "ok";
    case shard_scan_state::timed_out: return "timed_out";
    case shard_scan_state::failed: return "failed";
    case shard_scan_state::expired: return "expired";
    case shard_scan_state::rejected: return "rejected";
  }
  return "?";
}

namespace {

using detail::id_map;
using detail::result_better;
using detail::scan_stop;
using detail::shared_topk;

// Hands [0, n) to body(begin, end) in blocks of stop->every, polling the
// hook before each block. body returns false when the scan finished early
// on its own (the serial pruned scan's bound cut-off). Returns how many
// leading candidates were handed over: n unless the hook fired.
template <class Body>
std::size_t for_blocks(std::size_t n, scan_stop* stop, Body&& body) {
  const std::size_t every =
      stop != nullptr && stop->every > 0 ? stop->every : n;
  for (std::size_t begin = 0; begin < n; begin += every) {
    if (stop != nullptr && stop->fire && stop->fire()) {
      stop->fired.store(true, std::memory_order_relaxed);
      return begin;
    }
    if (!body(begin, std::min(n, begin + every))) break;
  }
  return n;
}

// Top-k scan with the two-stage admissible pruner. Stage 1: candidates are
// visited in decreasing histogram-bound order and skipped (or, serially,
// the whole tail dropped) once their bound falls below the running
// threshold. Stage 2: survivors are scored through similarity_bounded, so
// the threshold also cuts the DP short from the inside. Both stages discard
// only candidates provably outside the final result, so the output is
// IDENTICAL to the exhaustive scan for any thread count — and, when several
// shard scans feed one `shared` heap, the union of shards is identical to
// one big scan (the heap defends the GLOBAL k-th score either way).
//
// With a `shared` heap the survivors live there and the return value is
// empty; standalone, the heap is local and the ranked result is returned.
std::vector<query_result> pruned_search(const image_database& db,
                                        const be_string2d& query_strings,
                                        const be_histogram2d& query_histograms,
                                        std::span<const image_id> ids,
                                        id_map globals,
                                        const query_options& options,
                                        shared_topk* shared,
                                        search_stats* stats,
                                        scan_stop* stop) {
  struct bounded {
    double bound;
    double y_cap;
    image_id id;
  };
  std::vector<bounded> order(ids.size());
  const norm_kind norm = options.similarity.norm;
  parallel_for(ids.size(), options.threads, [&](std::size_t k) {
    const image_id id = ids[k];
    const be_histogram2d& h = db.record(id).histograms;
    const double x_cap = axis_similarity_upper_bound(
        query_histograms.x, query_histograms.x_len, h.x, h.x_len, norm);
    const double y_cap = axis_similarity_upper_bound(
        query_histograms.y, query_histograms.y_len, h.y, h.y_len, norm);
    order[k] = bounded{0.5 * (x_cap + y_cap), y_cap, id};
  });
  std::sort(order.begin(), order.end(), [](const bounded& a, const bounded& b) {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.id < b.id;
  });

  std::optional<shared_topk> local;
  if (shared == nullptr) {
    local.emplace(options.top_k, options.min_score);
  }
  shared_topk& top = shared != nullptr ? *shared : *local;
  std::atomic<std::size_t> scored{0};
  std::atomic<std::size_t> pruned{0};
  std::atomic<std::size_t> band_rejected{0};

  // One scoring context per scan worker, bound once to the CPU-dispatched
  // kernel: the per-candidate hot loop pays neither a thread_local lookup
  // nor any kernel re-resolution.
  std::vector<lcs_context> contexts(
      parallel_workers(order.size(), options.threads));

  auto visit = [&](lcs_context& ctx, const bounded& c) {
    const double threshold = top.threshold();
    if (c.bound < threshold) {
      pruned.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const db_record& rec = db.record(c.id);
    scored.fetch_add(1, std::memory_order_relaxed);
    const double score =
        similarity_bounded(query_strings, rec.strings, options.similarity,
                           threshold, ctx, c.y_cap);
    // Below the threshold the value may be an unfinished upper bound; either
    // way the candidate cannot reach the final result.
    if (score < threshold || score < options.min_score) {
      band_rejected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    top.insert(query_result{globals(rec.id), score, dihedral::identity});
  };

  const std::size_t visited =
      for_blocks(order.size(), stop, [&](std::size_t begin, std::size_t end) {
        if (options.threads <= 1) {
          // Serial fast path: bounds are sorted descending, so the first
          // candidate below the threshold ends the scan outright. Valid per
          // shard too: the shared threshold is monotone, so the drop only
          // ever grows stricter.
          for (std::size_t i = begin; i < end; ++i) {
            if (order[i].bound < top.threshold()) {
              pruned.fetch_add(order.size() - i, std::memory_order_relaxed);
              return false;
            }
            visit(contexts[0], order[i]);
          }
          return true;
        }
        parallel_for(end - begin, options.threads,
                     [&](unsigned worker, std::size_t k) {
                       visit(contexts[worker], order[begin + k]);
                     });
        return true;
      });

  if (stats != nullptr) {
    stats->scanned = visited;
    stats->scored = scored.load();
    stats->pruned = pruned.load();
    stats->band_rejected = band_rejected.load();
  }
  return shared != nullptr ? std::vector<query_result>{} : local->take();
}

std::vector<query_result> exhaustive_search(const image_database& db,
                                            const be_string2d& query_strings,
                                            const query_transforms* transforms,
                                            std::span<const image_id> ids,
                                            id_map globals,
                                            const query_options& options,
                                            search_stats* stats,
                                            scan_stop* stop) {
  // Transform-invariant scans need the 8 query variants; build them once for
  // the whole scan, never per record.
  query_transforms local;
  if (options.transform_invariant && transforms == nullptr) {
    local = precompute_transforms(query_strings);
    transforms = &local;
  }
  std::vector<query_result> hits(ids.size());
  // Per-worker contexts, same rationale as the pruned scan above.
  std::vector<lcs_context> contexts(
      parallel_workers(ids.size(), options.threads));
  const std::size_t visited =
      for_blocks(ids.size(), stop, [&](std::size_t begin, std::size_t end) {
        parallel_for(end - begin, options.threads, [&](unsigned worker,
                                                       std::size_t k) {
          const db_record& rec = db.record(ids[begin + k]);
          lcs_context& ctx = contexts[worker];
          query_result r;
          r.id = globals(rec.id);
          if (options.transform_invariant) {
            const transform_match best = best_transform_similarity(
                *transforms, rec.strings, options.similarity, ctx);
            r.score = best.score;
            r.transform = best.transform;
          } else {
            r.score =
                similarity(query_strings, rec.strings, options.similarity, ctx);
          }
          hits[begin + k] = r;
        });
        return true;
      });
  hits.resize(visited);
  if (stats != nullptr) {
    stats->scanned = visited;
    stats->scored = visited;
  }
  return detail::rank_results(std::move(hits), options);
}

}  // namespace

namespace detail {

std::vector<query_result> scan_shard(
    const image_database& db, const be_string2d& query_strings,
    std::span<const image_id> ids, id_map globals,
    const be_histogram2d* histograms, const query_transforms* transforms,
    const query_options& options, shared_topk* shared, search_stats* stats,
    const db_snapshot* snap, scan_stop* stop) {
  db_snapshot captured;
  if (snap == nullptr) {
    captured = db.snapshot();
    snap = &captured;
  }
  // Snapshot filter. Candidates the snapshot cannot see (published after its
  // watermark) are dropped before the scan even starts — they do not exist
  // in this view, so they are neither scanned nor pruned. Tombstoned
  // candidates ARE scanned: they count as pruned (the tombstone is a free,
  // always-admissible pruning decision), never as scored. When the snapshot
  // is all-live the scan runs on the caller's span untouched — EXCEPT for
  // past-watermark ids, which must still be dropped: the inverted index
  // publishes a record's postings BEFORE the record itself commits (that
  // order is what makes the local->global mapping safe to read), so an
  // index-generated candidate can precede the watermark bump by one racing
  // add even when no tombstone exists.
  std::vector<image_id> live;
  std::size_t dead = 0;
  std::span<const image_id> scan = ids;
  if (!snap->all_live()) {
    live.reserve(ids.size());
    for (image_id id : ids) {
      if (id >= snap->visible) continue;
      if (snap->alive(id)) {
        live.push_back(id);
      } else {
        ++dead;
      }
    }
    scan = live;
  } else {
    std::size_t keep = 0;
    while (keep < ids.size() && ids[keep] < snap->visible) ++keep;
    if (keep < ids.size()) {
      live.assign(ids.begin(),
                  ids.begin() + static_cast<std::ptrdiff_t>(keep));
      for (std::size_t k = keep + 1; k < ids.size(); ++k) {
        if (ids[k] < snap->visible) live.push_back(ids[k]);
      }
      scan = live;
    }
  }
  if (stats != nullptr) *stats = search_stats{};
  std::vector<query_result> out;
  if (pruning_applies(options)) {
    if (histograms != nullptr) {
      out = pruned_search(db, query_strings, *histograms, scan, globals,
                          options, shared, stats, stop);
    } else {
      out = pruned_search(db, query_strings, make_histograms(query_strings),
                          scan, globals, options, shared, stats, stop);
    }
  } else {
    out = exhaustive_search(db, query_strings, transforms, scan, globals,
                            options, stats, stop);
  }
  if (stats != nullptr) {
    stats->scanned += dead;
    stats->pruned += dead;
  }
  return out;
}

}  // namespace detail

std::vector<query_result> search(const db_snapshot& snap,
                                 const be_string2d& query_strings,
                                 std::span<const symbol_id> query_symbols,
                                 const query_options& options,
                                 search_stats* stats) {
  return detail::run_query(detail::shard_set(*snap.db),
                           detail::scan_query{.strings = &query_strings,
                                              .symbols = query_symbols},
                           {&snap, 1}, options, stats);
}

std::vector<query_result> search(const image_database& db,
                                 const be_string2d& query_strings,
                                 std::span<const symbol_id> query_symbols,
                                 const query_options& options,
                                 search_stats* stats) {
  const db_snapshot snap = db.snapshot();
  return search(snap, query_strings, query_symbols, options, stats);
}

std::vector<query_result> search_candidates(const image_database& db,
                                            const be_string2d& query_strings,
                                            std::span<const image_id> candidates,
                                            const query_options& options,
                                            search_stats* stats) {
  return detail::run_candidates(detail::shard_set(db), query_strings,
                                candidates, options, stats);
}

std::vector<query_result> search(const image_database& db,
                                 const symbolic_image& query,
                                 const query_options& options,
                                 search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search(db, strings, symbols, options, stats);
}

std::vector<query_result> search(const db_snapshot& snap,
                                 const symbolic_image& query,
                                 const query_options& options,
                                 search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search(snap, strings, symbols, options, stats);
}

namespace detail {

query_plan make_plan(const be_string2d& query_strings,
                     const query_options& options) {
  query_plan plan;
  if (pruning_applies(options)) {
    plan.histograms = make_histograms(query_strings);
  }
  if (options.transform_invariant) {
    plan.transforms = precompute_transforms(query_strings);
  }
  return plan;
}

encoded_queries encode_queries(std::span<const symbolic_image> queries,
                               unsigned threads) {
  encoded_queries out;
  out.strings.resize(queries.size());
  out.symbols.resize(queries.size());
  parallel_for(queries.size(), threads, [&](std::size_t i) {
    out.strings[i] = encode(queries[i]);
    out.symbols[i] = distinct_symbols(queries[i]);
  });
  return out;
}

}  // namespace detail

std::vector<std::vector<query_result>> search_batch(
    const image_database& db, std::span<const be_string2d> queries,
    std::span<const std::vector<symbol_id>> query_symbols,
    const query_options& options, std::vector<search_stats>* stats) {
  return detail::run_batch(detail::shard_set(db),
                           detail::batch_queries(queries, query_symbols), {},
                           options, stats);
}

std::vector<std::vector<query_result>> search_batch(
    const image_database& db, std::span<const symbolic_image> queries,
    const query_options& options, std::vector<search_stats>* stats) {
  const detail::encoded_queries encoded =
      detail::encode_queries(queries, options.threads);
  return search_batch(db, encoded.strings, encoded.symbols, options, stats);
}

std::vector<query_result> search_cached(const db_snapshot& snap,
                                        result_cache& cache,
                                        const be_string2d& query_strings,
                                        std::span<const symbol_id> query_symbols,
                                        const query_options& options,
                                        search_stats* stats) {
  return detail::run_cached(detail::shard_set(*snap.db), {&snap, 1}, cache,
                            query_strings, query_symbols, options, stats);
}

std::vector<query_result> search_cached(const image_database& db,
                                        result_cache& cache,
                                        const be_string2d& query_strings,
                                        std::span<const symbol_id> query_symbols,
                                        const query_options& options,
                                        search_stats* stats) {
  const db_snapshot snap = db.snapshot();
  return search_cached(snap, cache, query_strings, query_symbols, options,
                       stats);
}

std::vector<query_result> search_cached(const image_database& db,
                                        result_cache& cache,
                                        const symbolic_image& query,
                                        const query_options& options,
                                        search_stats* stats) {
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  return search_cached(db, cache, strings, symbols, options, stats);
}

std::vector<std::vector<query_result>> search_batch_candidates(
    const image_database& db, std::span<const be_string2d> queries,
    std::span<const std::vector<image_id>> candidates,
    const query_options& options, std::vector<search_stats>* stats) {
  if (queries.size() != candidates.size()) {
    throw std::invalid_argument(
        "search_batch_candidates: queries and candidates sizes differ");
  }
  for (const std::vector<image_id>& set : candidates) {
    for (image_id id : set) {
      if (id >= db.size()) {
        throw std::out_of_range("search_candidates: id " +
                                std::to_string(id) + " out of range");
      }
    }
  }
  const std::vector<std::span<const image_id>> lists(candidates.begin(),
                                                     candidates.end());
  std::vector<detail::scan_query> batch(queries.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = detail::scan_query{.strings = &queries[i],
                                  .lists = {&lists[i], 1}};
  }
  return detail::run_batch(detail::shard_set(db), batch, {}, options, stats);
}

}  // namespace bes
