// The one candidate-generation interface behind every scan. There are five
// ways to turn a query into a candidate id list — full scan, inverted
// symbol index, R-tree padded windows, symbol ∩ window, and the per-symbol
// hybrid postings.
// An access_path wraps each generator behind one interface yielding a
// sorted, unique candidate list plus a cheap cost estimate, so the scan
// engine (db/scan.hpp) and the cost-based planner (db/planner.hpp) consume
// candidate generation without knowing which structure produced it. It is
// the only candidate-generation surface: callers that want a spatial
// candidate set call make_access_path(kind, ctx)->generate(probe).
#pragma once

#include <memory>
#include <string_view>

#include "db/database.hpp"

namespace bes {

class spatial_index;
class hybrid_index;

enum class access_path_kind {
  full_scan,       // every record id; the only admissible-without-index path
  inverted_index,  // >= 1 shared symbol (admissible together with full_scan
                   // under the paper's "no shared symbol => score 0" note)
  rtree_window,    // >= 1 icon of a query symbol inside that icon's padded
                   // window (lossy under displacement > pad)
  combined,        // inverted_index ∩ rtree_window: both materialized in
                   // full, then intersected
  hybrid,          // the same set as combined from one pass over the
                   // query symbols' {mbr, id} posting lists
                   // (db/hybrid_index.hpp)
};

[[nodiscard]] std::string_view to_string(access_path_kind kind) noexcept;
// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] access_path_kind access_path_kind_from(std::string_view name);

// One query, as every generator sees it. `image` may be null for the
// non-spatial paths (full_scan, inverted_index); the spatial paths throw
// std::invalid_argument without it. `pad` widens each query icon's window
// on every side (spatial paths only).
struct path_probe {
  const symbolic_image* image = nullptr;
  std::span<const symbol_id> symbols;
  int pad = 0;
};

// Generation accounting (the candidates_generated side of search_stats).
struct access_path_stats {
  // Raw ids the generator produced before sorting/dedup/intersection —
  // >= the returned list's size, == it only when generation is exact.
  std::size_t candidates_generated = 0;
  // R-tree nodes visited. Always 0 today: rtree_window and combined do not
  // count nodes, and hybrid scans flat posting lists, not a tree.
  std::size_t nodes_visited = 0;
};

class access_path {
 public:
  virtual ~access_path() = default;

  [[nodiscard]] virtual access_path_kind kind() const noexcept = 0;

  // Cheap upper-bound estimate of generate()'s candidate count, from
  // statistics already on hand (db size, posting-list lengths, window/domain
  // area ratios). Never generates candidates; deterministic for a given
  // (probe, database state).
  [[nodiscard]] virtual std::size_t estimate(const path_probe& probe) const = 0;

  // The candidate ids (sorted, unique), ready for search_candidates. The
  // spatial paths throw std::invalid_argument on a negative pad. `stats`
  // (if non-null) is overwritten.
  [[nodiscard]] virtual std::vector<image_id> generate(
      const path_probe& probe, access_path_stats* stats = nullptr) const = 0;
};

// Everything a path may need to generate from. `db` is required; `spatial`
// only by rtree_window/combined; `hybrid` only by hybrid. make_access_path
// throws std::invalid_argument when the requested kind's structure is null.
struct access_path_context {
  const image_database* db = nullptr;
  const spatial_index* spatial = nullptr;
  const hybrid_index* hybrid = nullptr;
};

[[nodiscard]] std::unique_ptr<access_path> make_access_path(
    access_path_kind kind, const access_path_context& ctx);

}  // namespace bes
