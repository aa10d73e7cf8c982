#include "db/rtree.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace bes {

namespace {

long long area_ll(const rect& r) noexcept { return r.area(); }

}  // namespace

rect rtree::bounds_of(const node& n) noexcept {
  rect out = n.entries.front().box;
  for (std::size_t i = 1; i < n.entries.size(); ++i) {
    out = rect{hull(out.x, n.entries[i].box.x),
               hull(out.y, n.entries[i].box.y)};
  }
  return out;
}

long long rtree::enlargement(const rect& current, const rect& extra) noexcept {
  const rect merged{hull(current.x, extra.x), hull(current.y, extra.y)};
  return area_ll(merged) - area_ll(current);
}

int rtree::height() const noexcept { return height_; }

rtree::node* rtree::choose_leaf(node* from, const rect& box,
                                std::vector<node*>& path) {
  node* current = from;
  for (;;) {
    path.push_back(current);
    if (current->leaf) return current;
    // Least enlargement, ties by smallest area (Guttman ChooseLeaf).
    entry* best = nullptr;
    long long best_enlargement = std::numeric_limits<long long>::max();
    long long best_area = std::numeric_limits<long long>::max();
    for (entry& e : current->entries) {
      const long long grow = enlargement(e.box, box);
      const long long area = area_ll(e.box);
      if (grow < best_enlargement ||
          (grow == best_enlargement && area < best_area)) {
        best = &e;
        best_enlargement = grow;
        best_area = area;
      }
    }
    best->box = rect{hull(best->box.x, box.x), hull(best->box.y, box.y)};
    current = best->child.get();
  }
}

std::unique_ptr<rtree::node> rtree::split(node& full) {
  // Guttman quadratic split: pick the pair wasting the most area as seeds,
  // then assign each remaining entry to the group needing less enlargement
  // (forced assignment once a group must absorb the rest to stay >= m).
  std::vector<entry> entries = std::move(full.entries);
  full.entries.clear();

  std::size_t seed_a = 0;
  std::size_t seed_b = 1;
  long long worst = std::numeric_limits<long long>::min();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      const rect merged{hull(entries[i].box.x, entries[j].box.x),
                        hull(entries[i].box.y, entries[j].box.y)};
      const long long waste =
          area_ll(merged) - area_ll(entries[i].box) - area_ll(entries[j].box);
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  auto sibling = std::make_unique<node>();
  sibling->leaf = full.leaf;
  rect box_a = entries[seed_a].box;
  rect box_b = entries[seed_b].box;
  full.entries.push_back(std::move(entries[seed_a]));
  sibling->entries.push_back(std::move(entries[seed_b]));

  std::vector<entry> rest;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != seed_a && i != seed_b) rest.push_back(std::move(entries[i]));
  }
  for (std::size_t i = 0; i < rest.size(); ++i) {
    entry& e = rest[i];
    const std::size_t remaining = rest.size() - i;
    if (full.entries.size() + remaining <= min_entries) {
      box_a = rect{hull(box_a.x, e.box.x), hull(box_a.y, e.box.y)};
      full.entries.push_back(std::move(e));
      continue;
    }
    if (sibling->entries.size() + remaining <= min_entries) {
      box_b = rect{hull(box_b.x, e.box.x), hull(box_b.y, e.box.y)};
      sibling->entries.push_back(std::move(e));
      continue;
    }
    const long long grow_a = enlargement(box_a, e.box);
    const long long grow_b = enlargement(box_b, e.box);
    if (grow_a < grow_b ||
        (grow_a == grow_b && full.entries.size() <= sibling->entries.size())) {
      box_a = rect{hull(box_a.x, e.box.x), hull(box_a.y, e.box.y)};
      full.entries.push_back(std::move(e));
    } else {
      box_b = rect{hull(box_b.x, e.box.x), hull(box_b.y, e.box.y)};
      sibling->entries.push_back(std::move(e));
    }
  }
  return sibling;
}

void rtree::insert(const rect& box, payload_t payload) {
  if (!box.valid()) {
    throw std::invalid_argument("rtree::insert: invalid box " + to_string(box));
  }
  if (!root_) {
    root_ = std::make_unique<node>();
    height_ = 1;
  }
  std::vector<node*> path;
  node* leaf = choose_leaf(root_.get(), box, path);
  leaf->entries.push_back(entry{box, payload, nullptr});
  ++size_;

  // Split upward while nodes overflow.
  for (auto level = static_cast<std::ptrdiff_t>(path.size()) - 1; level >= 0;
       --level) {
    node* current = path[static_cast<std::size_t>(level)];
    if (current->entries.size() <= max_entries) break;
    std::unique_ptr<node> sibling = split(*current);
    if (level == 0) {
      // Grow a new root over the two halves.
      auto new_root = std::make_unique<node>();
      new_root->leaf = false;
      auto old_root = std::move(root_);
      new_root->entries.push_back(
          entry{bounds_of(*old_root), 0, std::move(old_root)});
      new_root->entries.push_back(
          entry{bounds_of(*sibling), 0, std::move(sibling)});
      root_ = std::move(new_root);
      ++height_;
    } else {
      node* parent = path[static_cast<std::size_t>(level) - 1];
      // Refresh the MBR of the entry pointing at `current` (the split moved
      // entries out of it), then add the sibling next to it.
      for (entry& e : parent->entries) {
        if (e.child.get() == current) {
          e.box = bounds_of(*current);
          break;
        }
      }
      parent->entries.push_back(
          entry{bounds_of(*sibling), 0, std::move(sibling)});
    }
  }
}

std::vector<rtree::payload_t> rtree::search(const rect& window) const {
  std::vector<payload_t> out;
  if (!root_) return out;
  std::vector<const node*> stack = {root_.get()};
  while (!stack.empty()) {
    const node* current = stack.back();
    stack.pop_back();
    for (const entry& e : current->entries) {
      if (!overlaps(e.box, window)) continue;
      if (current->leaf) {
        out.push_back(e.payload);
      } else {
        stack.push_back(e.child.get());
      }
    }
  }
  return out;
}

std::vector<rtree::payload_t> rtree::search_contained(
    const rect& window) const {
  std::vector<payload_t> out;
  if (!root_) return out;
  std::vector<const node*> stack = {root_.get()};
  while (!stack.empty()) {
    const node* current = stack.back();
    stack.pop_back();
    for (const entry& e : current->entries) {
      if (!overlaps(e.box, window)) continue;
      if (current->leaf) {
        if (contains(window, e.box)) out.push_back(e.payload);
      } else {
        stack.push_back(e.child.get());
      }
    }
  }
  return out;
}

bool rtree::check_invariants() const {
  if (!root_) return size_ == 0;
  bool ok = true;
  std::size_t leaves = 0;
  // (node, is_root, expected bounding box or nullptr)
  struct frame {
    const node* n;
    bool is_root;
    const rect* cover;
    int depth;
  };
  int leaf_depth = -1;
  std::vector<frame> stack = {{root_.get(), true, nullptr, 0}};
  while (!stack.empty() && ok) {
    const frame f = stack.back();
    stack.pop_back();
    if (f.n->entries.empty()) {
      ok = f.is_root && size_ == 0;
      continue;
    }
    if (!f.is_root && (f.n->entries.size() < min_entries ||
                       f.n->entries.size() > max_entries)) {
      ok = false;
    }
    if (f.cover != nullptr) {
      for (const entry& e : f.n->entries) {
        if (!contains(*f.cover, e.box)) ok = false;
      }
    }
    if (f.n->leaf) {
      if (leaf_depth == -1) leaf_depth = f.depth;
      if (leaf_depth != f.depth) ok = false;  // all leaves at same level
      leaves += f.n->entries.size();
    } else {
      for (const entry& e : f.n->entries) {
        if (!e.child) {
          ok = false;
          continue;
        }
        stack.push_back(frame{e.child.get(), false, &e.box, f.depth + 1});
      }
    }
  }
  return ok && leaves == size_;
}

}  // namespace bes
