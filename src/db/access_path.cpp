#include "db/access_path.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

#include "db/hybrid_index.hpp"
#include "db/scan.hpp"
#include "db/spatial_index.hpp"

namespace bes {

std::string_view to_string(access_path_kind kind) noexcept {
  switch (kind) {
    case access_path_kind::full_scan:
      return "full_scan";
    case access_path_kind::inverted_index:
      return "inverted_index";
    case access_path_kind::rtree_window:
      return "rtree_window";
    case access_path_kind::combined:
      return "combined";
    case access_path_kind::hybrid:
      return "hybrid";
  }
  return "unknown";
}

access_path_kind access_path_kind_from(std::string_view name) {
  for (access_path_kind kind :
       {access_path_kind::full_scan, access_path_kind::inverted_index,
        access_path_kind::rtree_window, access_path_kind::combined,
        access_path_kind::hybrid}) {
    if (to_string(kind) == name) return kind;
  }
  throw std::invalid_argument("unknown access path: " + std::string(name));
}

namespace {

// Sum of the query symbols' posting-list lengths: an upper bound on the
// inverted-index union (every candidate appears in >= 1 list).
std::size_t posting_mass(const image_database& db,
                         std::span<const symbol_id> symbols) {
  std::size_t total = 0;
  for (symbol_id s : symbols) total += db.postings(s);
  return total;
}

// Upper-bound estimate for the spatial paths: each query icon can match at
// most its symbol's whole posting list, scaled by how much of the query
// domain its padded window covers (records spread over the same domain, so
// the window/domain area ratio is the cheap stand-in for spatial density).
// All three spatial paths produce the same SET (window hits are
// symbol-filtered, hence a subset of the index union), so they share this
// estimate.
std::size_t window_mass(const image_database& db, const path_probe& probe) {
  const symbolic_image& query = *probe.image;
  const double domain_area =
      std::max(1.0, static_cast<double>(query.width()) *
                        static_cast<double>(query.height()));
  double total = 0.0;
  for (const icon& obj : query.icons()) {
    const double w = static_cast<double>(obj.mbr.x.hi - obj.mbr.x.lo +
                                         2 * probe.pad);
    const double h = static_cast<double>(obj.mbr.y.hi - obj.mbr.y.lo +
                                         2 * probe.pad);
    const double ratio = std::min(1.0, (w * h) / domain_area);
    total += static_cast<double>(db.postings(obj.symbol)) * ratio;
  }
  const auto capped = static_cast<std::size_t>(total);
  return std::min({capped, posting_mass(db, probe.symbols), db.size()});
}

void require_image(const path_probe& probe, access_path_kind kind) {
  if (probe.image == nullptr) {
    throw std::invalid_argument(std::string(to_string(kind)) +
                                " access path needs the query image");
  }
}

// Images with an icon of some query icon's symbol overlapping that icon's
// MBR padded by `pad` on every side (sorted, unique). `generated` receives
// the raw per-window hit count before dedup.
std::vector<image_id> window_hits(const spatial_index& spatial,
                                  const symbolic_image& query, int pad,
                                  std::size_t& generated) {
  if (pad < 0) {
    throw std::invalid_argument("window access path: pad must be >= 0");
  }
  std::vector<image_id> out;
  for (const icon& obj : query.icons()) {
    // Padded windows may extend past the image domain; the R-tree only
    // requires lo < hi, and out-of-domain area matches nothing.
    const rect window{interval{obj.mbr.x.lo - pad, obj.mbr.x.hi + pad},
                      interval{obj.mbr.y.lo - pad, obj.mbr.y.hi + pad}};
    const auto hits = spatial.images_overlapping(window, obj.symbol);
    out.insert(out.end(), hits.begin(), hits.end());
  }
  generated = out.size();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

class full_scan_path final : public access_path {
 public:
  explicit full_scan_path(const image_database& db) : db_(&db) {}

  access_path_kind kind() const noexcept override {
    return access_path_kind::full_scan;
  }

  std::size_t estimate(const path_probe&) const override { return db_->size(); }

  std::vector<image_id> generate(const path_probe&,
                                 access_path_stats* stats) const override {
    std::vector<image_id> all;
    all.reserve(db_->size());
    for (std::size_t i = 0; i < db_->size(); ++i) {
      all.push_back(static_cast<image_id>(i));
    }
    if (stats != nullptr) *stats = access_path_stats{all.size(), 0};
    return all;
  }

 private:
  const image_database* db_;
};

class inverted_index_path final : public access_path {
 public:
  explicit inverted_index_path(const image_database& db) : db_(&db) {}

  access_path_kind kind() const noexcept override {
    return access_path_kind::inverted_index;
  }

  std::size_t estimate(const path_probe& probe) const override {
    return std::min(db_->size(), posting_mass(*db_, probe.symbols));
  }

  std::vector<image_id> generate(const path_probe& probe,
                                 access_path_stats* stats) const override {
    std::vector<image_id> out = db_->candidates(probe.symbols);
    if (stats != nullptr) {
      *stats = access_path_stats{posting_mass(*db_, probe.symbols), 0};
    }
    return out;
  }

 private:
  const image_database* db_;
};

class rtree_window_path final : public access_path {
 public:
  rtree_window_path(const image_database& db, const spatial_index& spatial)
      : db_(&db), spatial_(&spatial) {}

  access_path_kind kind() const noexcept override {
    return access_path_kind::rtree_window;
  }

  std::size_t estimate(const path_probe& probe) const override {
    require_image(probe, kind());
    return window_mass(*db_, probe);
  }

  std::vector<image_id> generate(const path_probe& probe,
                                 access_path_stats* stats) const override {
    require_image(probe, kind());
    std::size_t generated = 0;
    std::vector<image_id> out =
        window_hits(*spatial_, *probe.image, probe.pad, generated);
    if (stats != nullptr) *stats = access_path_stats{generated, 0};
    return out;
  }

 private:
  const image_database* db_;
  const spatial_index* spatial_;
};

class combined_path final : public access_path {
 public:
  combined_path(const image_database& db, const spatial_index& spatial)
      : db_(&db), spatial_(&spatial) {}

  access_path_kind kind() const noexcept override {
    return access_path_kind::combined;
  }

  std::size_t estimate(const path_probe& probe) const override {
    require_image(probe, kind());
    return window_mass(*db_, probe);
  }

  std::vector<image_id> generate(const path_probe& probe,
                                 access_path_stats* stats) const override {
    require_image(probe, kind());
    // Both inputs are materialized in full, then intersected: everything
    // either side emitted counts as generated.
    std::size_t window_generated = 0;
    const std::vector<image_id> from_index = db_->candidates(*probe.image);
    const std::vector<image_id> from_window =
        window_hits(*spatial_, *probe.image, probe.pad, window_generated);
    std::vector<image_id> out;
    std::set_intersection(from_index.begin(), from_index.end(),
                          from_window.begin(), from_window.end(),
                          std::back_inserter(out));
    if (stats != nullptr) {
      *stats = access_path_stats{from_index.size() + window_generated, 0};
    }
    return out;
  }

 private:
  const image_database* db_;
  const spatial_index* spatial_;
};

class hybrid_path final : public access_path {
 public:
  hybrid_path(const image_database& db, const hybrid_index& hybrid)
      : db_(&db), hybrid_(&hybrid) {}

  access_path_kind kind() const noexcept override {
    return access_path_kind::hybrid;
  }

  std::size_t estimate(const path_probe& probe) const override {
    require_image(probe, kind());
    return window_mass(*db_, probe);
  }

  std::vector<image_id> generate(const path_probe& probe,
                                 access_path_stats* stats) const override {
    require_image(probe, kind());
    hybrid_index::probe_stats scanned;
    std::vector<image_id> out = hybrid_->candidates(
        *probe.image, probe.pad, stats != nullptr ? &scanned : nullptr);
    if (stats != nullptr) *stats = access_path_stats{scanned.raw_hits, 0};
    return out;
  }

 private:
  const image_database* db_;
  const hybrid_index* hybrid_;
};

}  // namespace

std::unique_ptr<access_path> make_access_path(access_path_kind kind,
                                              const access_path_context& ctx) {
  if (ctx.db == nullptr) {
    throw std::invalid_argument("make_access_path: null database");
  }
  switch (kind) {
    case access_path_kind::full_scan:
      return std::make_unique<full_scan_path>(*ctx.db);
    case access_path_kind::inverted_index:
      return std::make_unique<inverted_index_path>(*ctx.db);
    case access_path_kind::rtree_window:
      if (ctx.spatial == nullptr) break;
      return std::make_unique<rtree_window_path>(*ctx.db, *ctx.spatial);
    case access_path_kind::combined:
      if (ctx.spatial == nullptr) break;
      return std::make_unique<combined_path>(*ctx.db, *ctx.spatial);
    case access_path_kind::hybrid:
      if (ctx.hybrid == nullptr) break;
      return std::make_unique<hybrid_path>(*ctx.db, *ctx.hybrid);
  }
  throw std::invalid_argument("make_access_path: " +
                              std::string(to_string(kind)) +
                              " needs its index structure in the context");
}

namespace detail {

// The index/full-scan decision of every unplanned scan, answered through
// the access-path interface: the engine (db/scan.cpp) and the shard server
// call this and never touch the inverted index directly.
std::vector<image_id> scan_ids(const image_database& db,
                               std::span<const symbol_id> query_symbols,
                               const query_options& options,
                               std::size_t* generated) {
  const access_path_kind kind =
      options.use_index && !query_symbols.empty()
          ? access_path_kind::inverted_index
          : access_path_kind::full_scan;
  const access_path_context ctx{&db, nullptr, nullptr};
  access_path_stats stats;
  std::vector<image_id> ids = make_access_path(kind, ctx)->generate(
      path_probe{nullptr, query_symbols, 0}, &stats);
  if (generated != nullptr) *generated = stats.candidates_generated;
  return ids;
}

}  // namespace detail

}  // namespace bes
