// The spatial-visual index (ROADMAP "Hybrid spatial-visual index";
// "Hybrid Indexes to Expedite Spatial-Visual Search", PAPERS.md): symbol
// first, window second. Every icon lands in its symbol's flat posting list
// as {mbr, image id}; a probe scans only the lists of the query's symbols
// and keeps the entries whose MBR overlaps the query icon's padded window.
//
// The `combined` access path (db/access_path.hpp) materializes two full
// candidate lists — inverted-index hits and R-tree window hits — and
// intersects them after the fact. Here the exact symbol is the partition
// key, so the window test only ever runs against icons of the right symbol
// and no recheck is needed: the result SET is identical to the combined
// path's by construction, produced by one pass over the query symbols'
// lists.
#pragma once

#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "db/database.hpp"

namespace bes {

// Live ingest: same reader/writer discipline as spatial_index — add_image
// takes the exclusive side, candidates the shared side.
class hybrid_index {
 public:
  // Indexes all icons of all current records (snapshot; add images first).
  explicit hybrid_index(const image_database& db);

  // Deferred build for bulk-load paths: starts empty, caller indexes each
  // image as it lands (mirrors spatial_index).
  hybrid_index(const image_database& db, deferred_build_t);

  // Appends the icons of record `id` (already in the database) to their
  // symbols' posting lists. Two-phase like inverted_index::add: every list
  // is created and grown first, then the appends cannot throw, so a
  // throwing add leaves no partial image behind.
  void add_image(image_id id);

  // Probe accounting, surfaced by besdb explain and bench E9e.
  struct probe_stats {
    // Posting entries tested against a padded window: Σ over query icons of
    // that icon's symbol list length (== entries_to_test(query)).
    std::size_t entries_tested = 0;
    // Entries that passed, before dedup — includes several icons of one
    // image, so >= the returned list's size.
    std::size_t raw_hits = 0;
  };

  // Ids of images with at least one icon d and one query icon q such that
  // d.symbol == q.symbol and d.mbr overlaps q.mbr padded by `pad` pixels on
  // every side (sorted, unique) — the same set as the combined access
  // path at `pad`. pad < 0 throws.
  [[nodiscard]] std::vector<image_id> candidates(
      const symbolic_image& query, int pad,
      probe_stats* stats = nullptr) const;

  // The work candidates(query, ·) does: Σ over query icons of that icon's
  // symbol list length. The planner's cost term for this path.
  [[nodiscard]] std::size_t entries_to_test(const symbolic_image& query) const;

  [[nodiscard]] std::size_t indexed_icons() const {
    std::shared_lock lock(mutex_);
    return icons_;
  }

 private:
  struct posting {
    rect mbr;
    image_id image = 0;
  };

  [[nodiscard]] const std::vector<posting>* list_of(symbol_id symbol) const;

  const image_database* db_;
  std::unordered_map<symbol_id, std::vector<posting>> lists_;
  std::size_t icons_ = 0;
  mutable std::shared_mutex mutex_;
};

}  // namespace bes
