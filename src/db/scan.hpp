// The one scan engine behind every search, in process and on a shard
// server. A corpus is a shard set (shard_set below): a flat image_database
// is the one-shard set, by default with the identity id map, a
// sharded_database supplies one shard per partition. Every public search
// overload — flat, sharded, pinned, cached, batched, explicit-candidate and
// planned, in db/query.hpp, db/shard.hpp and db/planner.hpp — is a short
// forward into run_batch / run_query / run_candidates / run_cached here,
// which own the fan-out and merge, the (query, shard) batch queue,
// plan-per-shard generation, and the cached lookup with delta refresh. The
// shard server (net/server.hpp) is one run_query over a one-shard set with
// its global-id map, interrupted through a scan_stop hook. Internal:
// everything here may change shape.
//
// The fan-out keeps the single-database admissibility argument intact by
// sharing ONE running top-k across every shard scan of a query: shard scans
// (like a scan's worker threads) insert into the same shared_topk, whose
// k-th score only grows and is served to the hot pruning checks from a
// lock-free atomic cache. A candidate pruned at max(min_score, cached k-th)
// provably has >= k strictly better rivals across the union of shards, so
// dropping it cannot change the merged result — the same argument that
// makes the pruned scan identical to the exhaustive one. (A per-shard heap
// would NOT work: it defends k results per shard, so its threshold is only
// the k-th best of one partition — measurably weaker pruning the more
// shards there are.)
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <utility>

#include "db/database.hpp"
#include "db/query.hpp"
#include "lcs/similarity.hpp"

namespace bes {

class hybrid_index;
class result_cache;
class sharded_database;
class spatial_index;

}  // namespace bes

namespace bes::detail {

// Strict total order on results: score descending, id ascending. Ids are
// unique within a scan, so there are no equal elements to destabilize
// top-k eviction.
[[nodiscard]] bool result_better(const query_result& a,
                                 const query_result& b) noexcept;

// min_score filter + sort by result_better + top_k truncation.
[[nodiscard]] std::vector<query_result> rank_results(
    std::vector<query_result> hits, const query_options& options);

// Whether the histogram pruner engages for these options (needs a threshold
// to defend and is bypassed by transform-invariant scans).
[[nodiscard]] bool pruning_applies(const query_options& options);

// Candidate ids for an unplanned scan of one shard: the inverted-index hits
// when the index engages, else every record id — answered through the
// access-path interface (db/access_path.hpp), and shared by the full scan
// and the cached delta refresh so they never diverge on index-engagement
// rules.
// `generated` (if non-null) receives the raw pre-dedup hit count
// (search_stats::candidates_generated). Defined in access_path.cpp.
[[nodiscard]] std::vector<image_id> scan_ids(
    const image_database& db, std::span<const symbol_id> query_symbols,
    const query_options& options, std::size_t* generated = nullptr);

// Precomputed per-query scan state: the pruner histograms when pruning
// engages, the 8 dihedral query variants when transform-invariant (each
// left empty otherwise). Built once per query and shared by every shard
// scan of it, never rebuilt per shard or per chunk.
struct query_plan {
  be_histogram2d histograms;
  query_transforms transforms;
};
[[nodiscard]] query_plan make_plan(const be_string2d& query_strings,
                                   const query_options& options);

// Encoded strings and distinct symbols for a batch of symbolic queries,
// computed in parallel across the batch.
struct encoded_queries {
  std::vector<be_string2d> strings;
  std::vector<std::vector<symbol_id>> symbols;
};
[[nodiscard]] encoded_queries encode_queries(
    std::span<const symbolic_image> queries, unsigned threads);

// The running top-k shared by every worker of a scan — and, in a fan-out,
// by every shard scan of a query. The heap lives under a mutex, but the
// k-th score (the pruning threshold) is mirrored into an atomic on every
// insert that keeps the heap full, so the per-candidate threshold() read
// on the hot path never takes the lock. The k-th score only grows as
// candidates are inserted, so reading the cache at any moment yields an
// admissible threshold: a candidate provably below it can never enter the
// FINAL top-k either.
class shared_topk {
 public:
  // capacity == 0 means unlimited (min_score is then the only threshold).
  shared_topk(std::size_t capacity, double min_score);

  // max(min_score, current cached k-th score); lock-free.
  [[nodiscard]] double threshold() const noexcept {
    return std::max(min_score_, kth_.load(std::memory_order_relaxed));
  }

  void insert(const query_result& r);

  // The held results, sorted by result_better. Call once, after all
  // inserting scans have finished.
  [[nodiscard]] std::vector<query_result> take();

 private:
  mutable std::mutex mutex_;
  std::vector<query_result> top_;  // kept sorted by result_better()
  std::size_t capacity_;
  double min_score_;
  // Cached k-th score; only meaningful once the heap is full. Starts at
  // min_score so threshold() is min_score until then.
  std::atomic<double> kth_;
};

// Maps scan-local record ids to the ids reported in results. Default-
// constructed = identity (the unsharded scan). `flat` serves a loaded,
// static mapping (a shard server's global ids); `chunked` serves a live
// sharded part whose mapping grows under concurrent adds — chunked storage
// never moves, so the read is safe mid-ingest where a reallocating span
// would not be.
struct id_map {
  std::span<const image_id> flat{};
  const stable_vector<image_id>* chunked = nullptr;

  [[nodiscard]] image_id operator()(image_id local) const noexcept {
    if (chunked != nullptr) return (*chunked)[local];
    return flat.empty() ? local : flat[local];
  }
};

// An interrupt for running scans. Each shard scan takes its candidates in
// blocks of `every` (0 = one block) and calls `fire` before each block;
// once `fire` returns true that scan stops where it stands and `fired` is
// set. A stopped scan returns the exact top-k of the candidates it visited,
// and its stats count only those, so scanned == scored + pruned still
// holds. One shard scan never calls `fire` concurrently with itself, but
// the shard scans of a fan-out may.
struct scan_stop {
  std::size_t every = 0;
  std::function<bool()> fire;
  std::atomic<bool> fired{false};
};

// One shard-local scan: scores `ids` (record ids local to `db`) under
// `options`.
//
// `globals` maps local record ids to the ids reported in results (and used
// for top-k tie-breaks); pass {} for identity (the unsharded scan).
// `histograms`/`transforms` are optional precomputed per-query state
// (search_batch amortizes them across scans); null means compute on demand.
// `stats` (if non-null) is overwritten with this scan's accounting
// (scanned == scored + pruned).
//
// `snap` pins the scan to a database snapshot; null means "capture
// db.snapshot() now". Candidates not yet visible in the snapshot are
// dropped before the scan (they do not exist in that view, so they are not
// scanned); tombstoned candidates count as scanned AND pruned — never
// scored. When the snapshot is all-live the filter is skipped outright and
// the scan is byte-identical to the pre-ingest engine.
//
// `shared` is the query's cross-scan top-k, or null for a lone scan. When
// null (or when the scan is exhaustive — no threshold to share), the
// return value is this scan's ranked result: min_score-filtered, sorted,
// truncated to top_k, ready to merge by concatenation + re-rank. When
// `shared` is non-null and the pruner engages, survivors go into `shared`
// instead and the return value is EMPTY — the caller takes the shared heap
// once, after every scan of the query finished.
//
// `stop` (if non-null) may interrupt the scan between candidate blocks.
[[nodiscard]] std::vector<query_result> scan_shard(
    const image_database& db, const be_string2d& query_strings,
    std::span<const image_id> ids, id_map globals,
    const be_histogram2d* histograms, const query_transforms* transforms,
    const query_options& options, shared_topk* shared, search_stats* stats,
    const db_snapshot* snap = nullptr, scan_stop* stop = nullptr);

// ------------------------------------------------------------ shard sets

// One partition as the engine scans it: its records, how its local ids map
// to the ids results report, and the spatial structures the planner may
// probe (null takes that path off the menu).
struct shard_view {
  const image_database* db = nullptr;
  id_map globals;
  const spatial_index* spatial = nullptr;
  const hybrid_index* hybrid = nullptr;
};

// The corpus the engine runs over. The flat constructor holds its one view
// inline (no allocation); the sharded one holds one view per partition.
// A flat set's `globals` maps its results (a shard server passes its
// global ids); id_count() and locate() read the flat set's ids as local
// ones, so run_candidates and run_cached take only the identity map.
class shard_set {
 public:
  explicit shard_set(const image_database& db, id_map globals = {},
                     const spatial_index* spatial = nullptr,
                     const hybrid_index* hybrid = nullptr) noexcept
      : one_{&db, globals, spatial, hybrid} {}
  explicit shard_set(const sharded_database& db);

  [[nodiscard]] std::span<const shard_view> shards() const noexcept {
    return many_.empty() ? std::span<const shard_view>(&one_, 1)
                         : std::span<const shard_view>(many_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return shards().size(); }
  [[nodiscard]] const shard_view& operator[](std::size_t s) const noexcept {
    return shards()[s];
  }
  // The sharded database behind the set; null for a flat one.
  [[nodiscard]] const sharded_database* sharded() const noexcept {
    return sharded_;
  }

  // Global ids are [0, id_count()).
  [[nodiscard]] std::size_t id_count() const noexcept;
  // Global id -> (shard, local id). Precondition: global < id_count().
  [[nodiscard]] std::pair<std::size_t, image_id> locate(image_id global) const;
  // One snapshot per shard, captured now.
  [[nodiscard]] std::vector<db_snapshot> snapshot() const;

 private:
  shard_view one_;
  std::vector<shard_view> many_;
  const sharded_database* sharded_ = nullptr;
};

// ---------------------------------------------------------------- engine

// One query as the engine sees it. Each shard's candidates come from
// `lists[s]` (explicit shard-local ids, one list per shard) when `lists` is
// non-empty, else from the planner (plan_query against that shard's own
// statistics, then its access path) when `image` is set, else from the
// index/full-scan rule (scan_ids).
struct scan_query {
  const be_string2d* strings = nullptr;
  std::span<const symbol_id> symbols{};
  const symbolic_image* image = nullptr;
  std::span<const std::span<const image_id>> lists{};
};

// Runs every query over every shard as (query, shard) items on ONE dynamic
// work queue (chunk 1), so neither a slow query nor a hot shard strands the
// batch tail. Thread budget: min(threads, items) workers, the leftover
// threads go inside each scan. Per-query plans are built once up front.
// Every item scans against `snaps` (one per shard; empty = capture one per
// shard now), so the whole batch observes ONE instant. results[q] is
// identical to a serial single-query search at that instant; (*stats)[q]
// sums the query's per-shard accounting, plans in shard order. Throws
// std::invalid_argument when snaps has the wrong shard count. `stop` (if
// non-null) is handed to every shard scan; once it fired, results hold
// the exact top-k of what the stopped scans visited.
[[nodiscard]] std::vector<std::vector<query_result>> run_batch(
    const shard_set& set, std::span<const scan_query> queries,
    std::span<const db_snapshot> snaps, const query_options& options,
    std::vector<search_stats>* stats, scan_stop* stop = nullptr);

// run_batch over a one-element batch.
[[nodiscard]] std::vector<query_result> run_query(
    const shard_set& set, const scan_query& query,
    std::span<const db_snapshot> snaps, const query_options& options,
    search_stats* stats, scan_stop* stop = nullptr);

// Scores exactly the given GLOBAL-id candidates, partitioned to their
// shards. On a flat set the caller's span is scanned as is (no copy).
// Throws std::out_of_range on an id >= set.id_count().
[[nodiscard]] std::vector<query_result> run_candidates(
    const shard_set& set, const be_string2d& query_strings,
    std::span<const image_id> candidates, const query_options& options,
    search_stats* stats);

// The cached search over `set` at `snaps` (one per shard): a pure hit, a
// delta refresh scoring only each shard's appended suffix, or a full scan
// whose result is stored unless it would regress a fresher entry. Keys
// carry the flat scope (shard count 1) or the sharded scope (shard count,
// ring replicas). See search_cached in db/query.hpp.
[[nodiscard]] std::vector<query_result> run_cached(
    const shard_set& set, std::span<const db_snapshot> snaps,
    result_cache& cache, const be_string2d& query_strings,
    std::span<const symbol_id> query_symbols, const query_options& options,
    search_stats* stats);

// One scan_query per (strings[i], symbols[i]) — and images[i] when
// `images` is non-empty (planned batches). Throws std::invalid_argument
// when the spans' lengths differ.
[[nodiscard]] std::vector<scan_query> batch_queries(
    std::span<const be_string2d> strings,
    std::span<const std::vector<symbol_id>> symbols,
    std::span<const symbolic_image> images = {});

}  // namespace bes::detail
