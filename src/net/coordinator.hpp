// The scatter/gather coordinator: fans a query out to every shard server,
// gathers per-shard top-k answers, and merges them exactly as the
// in-process sharded search does (concat + rank). Each shard defends its
// own top-k, and the global top-k is a subset of the union of per-shard
// top-ks, so the merge is bit-identical to the unsharded scan.
//
// Failure policy: a shard that dies, hangs past the deadline, rejects, or
// expires mid-scan degrades the answer instead of sinking it — the merged
// result carries stats.degraded = true plus one shard_scan_status per shard
// saying exactly how each partition ended.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/be_string.hpp"
#include "db/query.hpp"
#include "db/result_cache.hpp"
#include "symbolic/alphabet.hpp"

namespace bes::net {

struct endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct coordinator_options {
  unsigned connect_timeout_ms = 2000;
  // Per-query budget (scatter to final gather); 0 = wait forever.
  unsigned default_deadline_ms = 30000;
  // Admission control: queries in flight through this coordinator at once;
  // also the worker count for search_batch.
  unsigned max_inflight = 4;
  // Coordinator-side result cache (db/result_cache.hpp): > 0 enables a
  // cache of that many entries, so a repeated query short-circuits before
  // touching any socket. Remote corpora are immutable while served, so
  // entries have no epoch cut; call invalidate_cache() when the fleet's
  // corpus or topology changes. Entries store the gathered per-shard UNION
  // (pre-truncation), keyed without top_k: one entry serves any request
  // whose top_k fits within the depth it was gathered at; a deeper request
  // is a plain miss that re-scatters and replaces the entry. Only
  // non-degraded answers are cached.
  std::size_t cache_entries = 0;
};

struct remote_result {
  std::vector<query_result> results;
  search_stats stats;
};

class coordinator {
 public:
  explicit coordinator(std::vector<endpoint> shards,
                       const coordinator_options& options = {});
  ~coordinator();

  coordinator(const coordinator&) = delete;
  coordinator& operator=(const coordinator&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept;

  // Scatter/gather one query. Never throws on shard failure — degraded
  // answers carry the evidence in stats; throws std::invalid_argument only
  // on unusable arguments (no shards).
  [[nodiscard]] remote_result search(const be_string2d& query,
                                     std::span<const symbol_id> query_symbols,
                                     const query_options& options);

  // Batch: results[i] corresponds to queries[i]. Queries run through up to
  // max_inflight concurrent scatters; each query's merge is independent, so
  // results match per-query search() calls exactly.
  [[nodiscard]] std::vector<remote_result> search_batch(
      std::span<const be_string2d> queries,
      std::span<const std::vector<symbol_id>> query_symbols,
      const query_options& options);

  // The corpus alphabet: the longest symbol list any shard reports (shard
  // alphabets are prefixes of the master). Throws net_error if no shard is
  // reachable.
  [[nodiscard]] std::vector<std::string> fetch_symbols();

  // Asks every reachable shard server to stop (best effort).
  void shutdown_servers();

  // Counters of the coordinator-side cache (all zero when disabled). Remote
  // entries are never refreshed, so delta_refreshes stays zero.
  [[nodiscard]] result_cache_stats cache_stats() const noexcept;

  // Drops every cached entry. Call when the served corpus changes (reshard,
  // compaction, corpus swap) — remote entries carry no epoch cut to expire
  // them automatically.
  void invalidate_cache() noexcept;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace bes::net
