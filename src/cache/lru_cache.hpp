// Byte-budgeted LRU cache modelling the scarce SSD-integrated DRAM.
//
// The paper's Fig. 5 experiment limits the FTL cache budget to 10 MB and
// measures the miss ratio of the index under it; both RHIK's record-layer
// tables and the baseline multi-level hash index share a cache of this
// shape. Entries carry a dirty bit: evicting a dirty entry invokes the
// owner's write-back handler (which programs a new flash page).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/status.hpp"
#include "obs/metrics.hpp"

namespace rhik::cache {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_writebacks = 0;

  [[nodiscard]] std::uint64_t lookups() const noexcept { return hits + misses; }
  [[nodiscard]] double miss_ratio() const noexcept {
    const std::uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(n);
  }

  /// Registers these counters into a metrics snapshot (`cache.*`).
  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("cache.hits", hits);
    snap.add_counter("cache.misses", misses);
    snap.add_counter("cache.evictions", evictions);
    snap.add_counter("cache.dirty_writebacks", dirty_writebacks);
  }
};

template <typename K, typename V>
class LruCache {
 public:
  /// Called when a dirty entry leaves the cache (eviction) or is flushed;
  /// the owner persists it and returns the outcome. Clean entries are
  /// dropped silently.
  using WritebackFn = std::function<Status(const K&, V&)>;

  /// `budget_bytes` / `entry_charge` bounds the entry count (min 1).
  LruCache(std::uint64_t budget_bytes, std::uint64_t entry_charge)
      : capacity_(entry_charge == 0 ? 1 : budget_bytes / entry_charge) {
    if (capacity_ == 0) capacity_ = 1;
  }

  void set_writeback(WritebackFn fn) { writeback_ = std::move(fn); }

  /// Lookup; refreshes recency. Counts a hit or miss.
  V* get(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      stats_.misses++;
      return nullptr;
    }
    stats_.hits++;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Lookup without stats/recency side effects (introspection).
  V* peek(const K& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second->value;
  }

  [[nodiscard]] bool contains(const K& key) const { return map_.count(key) != 0; }

  /// Inserts (or replaces) an entry; evicts LRU entries over budget.
  /// Returns the cached value.
  V* insert(const K& key, V value, bool dirty = false) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->value = std::move(value);
      it->second->dirty = it->second->dirty || dirty;
      lru_.splice(lru_.begin(), lru_, it->second);
      return &it->second->value;
    }
    lru_.push_front(Node{key, std::move(value), dirty});
    map_[key] = lru_.begin();
    shrink_to_budget();
    return &lru_.begin()->value;
  }

  /// Evicts the LRU entry now (writing back if dirty) and hands its value
  /// to the caller for storage reuse; nullopt while under budget or when
  /// the write-back fails. Pairing this with the following insert() keeps
  /// the eviction count identical to letting insert() evict, but lets a
  /// miss path recycle the victim's heap allocations instead of freeing
  /// them and allocating afresh.
  std::optional<V> take_lru_if_full() {
    if (map_.size() < capacity_) return std::nullopt;
    return evict_lru();
  }

  void mark_dirty(const K& key) {
    auto it = map_.find(key);
    if (it != map_.end()) it->second->dirty = true;
  }

  /// Drops an entry without write-back (caller already persisted or the
  /// entry is obsolete, e.g. after a resize).
  void erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    lru_.erase(it->second);
    map_.erase(it);
  }

  /// Writes back every dirty entry; entries stay cached. An entry whose
  /// write-back fails stays dirty, so a later flush writes it. Returns
  /// the first failure.
  Status flush_all() {
    Status first = Status::kOk;
    for (auto& node : lru_) {
      if (!node.dirty) continue;
      const Status s = writeback_ ? writeback_(node.key, node.value) : Status::kOk;
      stats_.dirty_writebacks++;
      if (ok(s)) {
        node.dirty = false;
      } else if (ok(first)) {
        first = s;
      }
    }
    return first;
  }

  /// Drops everything, writing back dirty entries first.
  void clear() {
    (void)flush_all();
    lru_.clear();
    map_.clear();
  }

  /// Changes the entry budget; evicts immediately if shrinking.
  void set_capacity_entries(std::uint64_t entries) {
    capacity_ = entries == 0 ? 1 : entries;
    shrink_to_budget();
  }

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] std::uint64_t capacity_entries() const noexcept { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  struct Node {
    K key;
    V value;
    bool dirty = false;
  };

  /// Evicts LRU entries until the cache is within budget. Stops at the
  /// first failed write-back rather than retry the same entry.
  void shrink_to_budget() {
    while (map_.size() > capacity_ && evict_lru().has_value()) {}
  }

  /// Removes the LRU entry, writing it back first if dirty, and returns
  /// its value. An entry whose write-back fails stays cached and dirty,
  /// so the next flush_all() writes it, and nullopt is returned: the
  /// cache sits over budget until a later eviction succeeds.
  std::optional<V> evict_lru() {
    assert(!lru_.empty());
    Node& victim = lru_.back();
    if (victim.dirty) {
      const Status s = writeback_ ? writeback_(victim.key, victim.value) : Status::kOk;
      stats_.dirty_writebacks++;
      if (!ok(s)) return std::nullopt;
    }
    stats_.evictions++;
    V out = std::move(victim.value);
    map_.erase(victim.key);
    lru_.pop_back();
    return out;
  }

  std::uint64_t capacity_;
  std::list<Node> lru_;
  std::unordered_map<K, typename std::list<Node>::iterator> map_;
  WritebackFn writeback_;
  CacheStats stats_;
};

}  // namespace rhik::cache
