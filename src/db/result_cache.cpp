#include "db/result_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/token.hpp"
#include "lcs/kernel.hpp"
#include "lcs/similarity.hpp"

namespace bes {

namespace {

void append_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void append_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  append_u64(out, bits);
}

// One token as a u64: all-ones for the dummy, else (symbol << 1) | kind —
// the same packing idea BSEG1 uses, widened so no symbol id can collide
// with the dummy sentinel.
void append_token(std::string& out, token t) {
  if (t.is_dummy()) {
    append_u64(out, ~std::uint64_t{0});
    return;
  }
  append_u64(out, (static_cast<std::uint64_t>(t.symbol()) << 1) |
                      static_cast<std::uint64_t>(t.kind()));
}

void append_axis(std::string& out, const axis_string& axis) {
  append_u64(out, axis.size());
  for (token t : axis.tokens()) append_token(out, t);
}

void append_strings(std::string& out, const be_string2d& strings) {
  append_axis(out, strings.x);
  append_axis(out, strings.y);
}

// Serialized token streams ordered lexicographically = canonical-variant
// order. Comparing serializations (not the structures) keeps "smallest
// variant" a pure byte-level fact the key can reproduce forever.
std::string serialize_strings(const be_string2d& strings) {
  std::string out;
  out.reserve(16 + 8 * strings.total_tokens());
  append_strings(out, strings);
  return out;
}

std::uint64_t fnv1a64(const std::string& bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

cache_key make_cache_key(const be_string2d& query_strings,
                         std::span<const symbol_id> query_symbols,
                         const query_options& options, cache_scope scope,
                         std::uint32_t shard_count,
                         std::uint32_t ring_replicas, bool key_top_k) {
  cache_key key;

  // Canonicalize the query first: under transform_invariant the scan scores
  // max over all 8 dihedral variants, so any orientation of the same picture
  // has the same answer set — key them together via the lexicographically
  // smallest serialized variant.
  std::string canonical_strings;
  if (options.transform_invariant) {
    canonical_strings = serialize_strings(query_strings);
    key.canon = dihedral::identity;
    for (const dihedral t : std::span(all_dihedral).subspan(1)) {
      std::string candidate = serialize_strings(apply(t, query_strings));
      if (candidate < canonical_strings) {
        canonical_strings = std::move(candidate);
        key.canon = t;
      }
    }
  } else {
    canonical_strings = serialize_strings(query_strings);
    key.canon = dihedral::identity;
  }

  std::string& out = key.bytes;
  out.reserve(64 + canonical_strings.size() + 4 * query_symbols.size());
  out.append("BQK1");
  append_u8(out, static_cast<std::uint8_t>(scope));
  append_u32(out, shard_count);
  append_u32(out, ring_replicas);

  const std::string_view kernel = active_lcs_kernel().name;
  append_u32(out, static_cast<std::uint32_t>(kernel.size()));
  out.append(kernel);

  append_u64(out, key_top_k ? options.top_k : 0);
  append_f64(out, options.min_score);
  append_u8(out, options.transform_invariant ? 1 : 0);
  append_u8(out, options.use_index ? 1 : 0);
  append_u8(out, options.histogram_pruning ? 1 : 0);
  append_u8(out, static_cast<std::uint8_t>(options.similarity.norm));
  append_u8(out, options.similarity.exact_lcs ? 1 : 0);

  // The symbol set drives the index filter (empty forces a full scan), so
  // two queries with equal strings but different symbol lists can scan
  // different candidate sets — the set is part of the answer's identity.
  append_u32(out, static_cast<std::uint32_t>(query_symbols.size()));
  for (symbol_id s : query_symbols) append_u32(out, s);

  out.append(canonical_strings);
  key.digest = fnv1a64(out);
  return key;
}

void to_canonical_frame(std::vector<query_result>& results, dihedral canon) {
  if (canon == dihedral::identity) return;
  const dihedral undo = inverse(canon);
  for (query_result& r : results) r.transform = compose(undo, r.transform);
}

void from_canonical_frame(std::vector<query_result>& results, dihedral canon) {
  if (canon == dihedral::identity) return;
  for (query_result& r : results) r.transform = compose(canon, r.transform);
}

// ---------------------------------------------------------------------------
// The store.

struct result_cache::shard_state {
  struct node {
    std::string key;
    cache_entry entry;
    bool is_protected = false;
  };
  using node_list = std::list<node>;

  std::mutex m;
  node_list probation;   // first-touch entries, evicted first
  node_list protected_;  // re-referenced entries
  std::unordered_map<std::string_view, node_list::iterator> index;
};

struct result_cache::counters {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> delta_refreshes{0};
  std::atomic<std::uint64_t> delta_rescored{0};
  std::atomic<std::uint64_t> insertions{0};
  std::atomic<std::uint64_t> evictions{0};
};

result_cache::result_cache(result_cache_options options)
    : options_(options), counters_(std::make_unique<counters>()) {
  if (options_.capacity == 0) {
    throw std::invalid_argument("result_cache: capacity must be > 0");
  }
  if (options_.shards == 0) options_.shards = 1;
  shard_count_ = std::min(options_.shards, options_.capacity);
  per_shard_capacity_ =
      (options_.capacity + shard_count_ - 1) / shard_count_;
  const double frac = std::clamp(options_.protected_fraction, 0.0, 1.0);
  protected_capacity_ = static_cast<std::size_t>(
      static_cast<double>(per_shard_capacity_) * frac);
  if (protected_capacity_ >= per_shard_capacity_ && per_shard_capacity_ > 1) {
    protected_capacity_ = per_shard_capacity_ - 1;
  }
  shards_ = std::make_unique<shard_state[]>(shard_count_);
}

result_cache::~result_cache() = default;

const result_cache_options& result_cache::options() const noexcept {
  return options_;
}

result_cache::shard_state& result_cache::shard_for(
    std::uint64_t digest) noexcept {
  return shards_[digest % shard_count_];
}

std::optional<cache_entry> result_cache::find(const cache_key& key) {
  shard_state& s = shard_for(key.digest);
  std::lock_guard lock(s.m);
  const auto it = s.index.find(std::string_view{key.bytes});
  if (it == s.index.end()) return std::nullopt;
  const auto node_it = it->second;
  if (node_it->is_protected) {
    // Refresh recency within the protected segment.
    s.protected_.splice(s.protected_.begin(), s.protected_, node_it);
  } else {
    // Promote probation -> protected; demote the protected tail back to
    // probation when the segment overflows (it keeps a second chance).
    node_it->is_protected = true;
    s.protected_.splice(s.protected_.begin(), s.probation, node_it);
    while (s.protected_.size() > protected_capacity_ &&
           s.protected_.size() > 1) {
      const auto tail = std::prev(s.protected_.end());
      tail->is_protected = false;
      s.probation.splice(s.probation.begin(), s.protected_, tail);
    }
  }
  return node_it->entry;
}

void result_cache::put(const cache_key& key, cache_entry entry) {
  shard_state& s = shard_for(key.digest);
  std::lock_guard lock(s.m);
  const auto it = s.index.find(std::string_view{key.bytes});
  if (it != s.index.end()) {
    const auto node_it = it->second;
    node_it->entry = std::move(entry);
    shard_state::node_list& home =
        node_it->is_protected ? s.protected_ : s.probation;
    home.splice(home.begin(), home, node_it);
    return;
  }
  s.probation.push_front(
      shard_state::node{key.bytes, std::move(entry), false});
  s.index.emplace(std::string_view{s.probation.front().key},
                  s.probation.begin());
  counters_->insertions.fetch_add(1, std::memory_order_relaxed);
  while (s.probation.size() + s.protected_.size() > per_shard_capacity_) {
    shard_state::node_list& victim_list =
        s.probation.empty() ? s.protected_ : s.probation;
    const auto victim = std::prev(victim_list.end());
    s.index.erase(std::string_view{victim->key});
    victim_list.erase(victim);
    counters_->evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void result_cache::clear() {
  for (std::size_t i = 0; i < shard_count_; ++i) {
    shard_state& s = shards_[i];
    std::lock_guard lock(s.m);
    s.index.clear();
    s.probation.clear();
    s.protected_.clear();
  }
}

std::size_t result_cache::size() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    shard_state& s = shards_[i];
    std::lock_guard lock(s.m);
    total += s.probation.size() + s.protected_.size();
  }
  return total;
}

result_cache_stats result_cache::stats() const noexcept {
  result_cache_stats out;
  out.hits = counters_->hits.load(std::memory_order_relaxed);
  out.misses = counters_->misses.load(std::memory_order_relaxed);
  out.delta_refreshes =
      counters_->delta_refreshes.load(std::memory_order_relaxed);
  out.delta_rescored =
      counters_->delta_rescored.load(std::memory_order_relaxed);
  out.insertions = counters_->insertions.load(std::memory_order_relaxed);
  out.evictions = counters_->evictions.load(std::memory_order_relaxed);
  return out;
}

void result_cache::note_hit() noexcept {
  counters_->hits.fetch_add(1, std::memory_order_relaxed);
}

void result_cache::note_miss() noexcept {
  counters_->misses.fetch_add(1, std::memory_order_relaxed);
}

void result_cache::note_delta_refresh(std::uint64_t rescored) noexcept {
  counters_->delta_refreshes.fetch_add(1, std::memory_order_relaxed);
  counters_->delta_rescored.fetch_add(rescored, std::memory_order_relaxed);
}

bool result_cache::debug_mutate(const cache_key& key,
                                const std::function<void(cache_entry&)>& fn) {
  shard_state& s = shard_for(key.digest);
  std::lock_guard lock(s.m);
  const auto it = s.index.find(std::string_view{key.bytes});
  if (it == s.index.end()) return false;
  fn(it->second->entry);
  return true;
}

}  // namespace bes
