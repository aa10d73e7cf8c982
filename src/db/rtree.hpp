// R-tree (Guttman 1984, the paper's reference [1]) — the "by size and
// location" indexing family the paper contrasts with relation-based
// indexing. We use it as a spatial access path: window queries over all
// icon MBRs in the database ("images with some icon inside this region")
// complement the relation-based BE-string scoring.
//
// Quadratic-split insertion, overlap window search; M = 8 entries per node,
// m = 3 minimum fill. Deletion is not needed by any experiment and is
// intentionally out of scope.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/rect.hpp"

namespace bes {

class rtree {
 public:
  using payload_t = std::uint64_t;

  rtree() = default;

  // Inserts a box with its payload. Boxes may duplicate and overlap freely.
  // Throws std::invalid_argument on an invalid box.
  void insert(const rect& box, payload_t payload);

  // Payloads of all entries whose box overlaps `window` (shares at least
  // one point), in unspecified order.
  [[nodiscard]] std::vector<payload_t> search(const rect& window) const;

  // Payloads of all entries whose box is fully contained in `window`.
  [[nodiscard]] std::vector<payload_t> search_contained(
      const rect& window) const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] int height() const noexcept;  // 0 for empty tree

  // Structural invariants (node fills, parent MBR coverage, leaf depth);
  // used by tests.
  [[nodiscard]] bool check_invariants() const;

  static constexpr std::size_t max_entries = 8;
  static constexpr std::size_t min_entries = 3;

 private:
  struct node;
  struct entry {
    rect box;
    payload_t payload = 0;        // leaf entries
    std::unique_ptr<node> child;  // internal entries
  };
  struct node {
    bool leaf = true;
    std::vector<entry> entries;
  };

  static rect bounds_of(const node& n) noexcept;
  static long long enlargement(const rect& current, const rect& extra) noexcept;
  node* choose_leaf(node* from, const rect& box, std::vector<node*>& path);
  static std::unique_ptr<node> split(node& full);

  std::unique_ptr<node> root_;
  std::size_t size_ = 0;
  int height_ = 0;
};

}  // namespace bes
