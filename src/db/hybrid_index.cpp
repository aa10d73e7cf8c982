#include "db/hybrid_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace bes {

namespace {

rect padded(const rect& mbr, int pad) {
  return rect{interval{mbr.x.lo - pad, mbr.x.hi + pad},
              interval{mbr.y.lo - pad, mbr.y.hi + pad}};
}

}  // namespace

hybrid_index::hybrid_index(const image_database& db) : db_(&db) {
  for (const db_record& rec : db.records()) add_image(rec.id);
}

hybrid_index::hybrid_index(const image_database& db, deferred_build_t)
    : db_(&db) {}

void hybrid_index::add_image(image_id id) {
  const db_record& rec = db_->record(id);
  const std::vector<icon>& icons = rec.image.icons();
  std::unique_lock lock(mutex_);
  // Phase 1 — all allocations: create missing lists and make room in each
  // for every icon of this image carrying its symbol. Anything thrown here
  // leaves only empty lists / spare capacity behind, never a posting.
  for (const icon& obj : icons) {
    const auto same = static_cast<std::size_t>(std::count_if(
        icons.begin(), icons.end(),
        [&](const icon& other) { return other.symbol == obj.symbol; }));
    std::vector<posting>& list = lists_[obj.symbol];
    if (list.capacity() - list.size() < same) {
      list.reserve(std::max(list.size() + same, 2 * list.size()));
    }
  }
  // Phase 2 — no-throw appends into reserved capacity.
  for (const icon& obj : icons) {
    lists_.find(obj.symbol)->second.push_back(posting{obj.mbr, rec.id});
  }
  icons_ += icons.size();
}

const std::vector<hybrid_index::posting>* hybrid_index::list_of(
    symbol_id symbol) const {
  const auto it = lists_.find(symbol);
  return it == lists_.end() ? nullptr : &it->second;
}

std::size_t hybrid_index::entries_to_test(const symbolic_image& query) const {
  std::shared_lock lock(mutex_);
  std::size_t total = 0;
  for (const icon& q : query.icons()) {
    if (const auto* list = list_of(q.symbol)) total += list->size();
  }
  return total;
}

std::vector<image_id> hybrid_index::candidates(const symbolic_image& query,
                                               int pad,
                                               probe_stats* stats) const {
  if (pad < 0) {
    throw std::invalid_argument("hybrid_index::candidates: pad must be >= 0");
  }
  std::vector<image_id> out;
  std::size_t tested = 0;
  {
    std::shared_lock lock(mutex_);
    for (const icon& q : query.icons()) {
      const auto* list = list_of(q.symbol);
      if (list == nullptr) continue;
      const rect window = padded(q.mbr, pad);
      tested += list->size();
      for (const posting& p : *list) {
        if (overlaps(window, p.mbr)) out.push_back(p.image);
      }
    }
  }
  if (stats != nullptr) *stats = probe_stats{tested, out.size()};
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace bes
