// The one least-recently-used map behind every bounded cache in the tree.
//
// LruMap is the list + index LRU itself. Its capacity is a total COST, so
// the same code caps DiskGraph's adjacency blocks by bytes (the paper's
// memory-capped disk-resident experiment, Section 6.4) and the serving
// caches by entry count (cost 1 each). It is not thread-safe.
//
// EpochLruCache is the thread-safe shape both serving tiers share — the
// certified-result cache (core/query_cache.h) and the warm-subgraph cache
// (core/subgraph_cache.h): one leaf flos::Mutex around an LruMap, hit/miss
// counters, and a redundant copy of every entry's graph epoch that
// FLOS_AUDIT cross-checks against the key on each hit. The rules that
// differ per cache (what may be admitted, what a hit means) live at the
// engine's lookup and insert sites, not here.

#ifndef FLOS_UTIL_LRU_CACHE_H_
#define FLOS_UTIL_LRU_CACHE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace flos {

namespace internal {

template <typename T>
uint64_t HashBits(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<uint64_t>(static_cast<double>(v));
  } else {
    return static_cast<uint64_t>(v);
  }
}

}  // namespace internal

/// splitmix64-style mix over a cache key's fields. Doubles hash by bit
/// pattern (keys compare exactly, so -0.0 vs 0.0 costing a miss is fine);
/// integers and enums by value.
template <typename... Fields>
size_t HashFields(const Fields&... fields) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  };
  (mix(internal::HashBits(fields)), ...);
  return static_cast<size_t>(h);
}

/// Least-recently-used map whose entries carry a cost; the summed cost
/// never exceeds the capacity. Not thread-safe.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMap {
 public:
  /// `capacity` is the total cost budget (0 disables the map: every
  /// positive-cost Put is dropped).
  explicit LruMap(uint64_t capacity) : capacity_(capacity) {}

  /// The entry for `key`, freshened to most recent; nullptr on a miss.
  /// The pointer stays valid until the next Put or Clear.
  Value* Get(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  /// Files `value` under `key` as the most recent entry, replacing any
  /// existing one, then evicts least-recent entries until the total cost
  /// fits. An item costlier than the whole capacity is dropped.
  void Put(const Key& key, Value value, uint64_t cost = 1) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      used_ -= it->second->cost;
      entries_.erase(it->second);
      index_.erase(it);
    }
    if (cost > capacity_) return;
    used_ += cost;
    entries_.push_front(Entry{key, std::move(value), cost});
    index_.emplace(key, entries_.begin());
    while (used_ > capacity_) {
      used_ -= entries_.back().cost;
      index_.erase(entries_.back().key);
      entries_.pop_back();
    }
  }

  void Clear() {
    entries_.clear();
    index_.clear();
    used_ = 0;
  }

  size_t size() const { return entries_.size(); }
  /// Summed cost of the held entries.
  uint64_t used() const { return used_; }

 private:
  struct Entry {
    Key key;
    Value value;
    uint64_t cost;
  };

  uint64_t capacity_;
  uint64_t used_ = 0;
  /// front = most recent
  std::list<Entry> entries_;
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
};

/// Thread-safe LRU of at most `capacity` epoch-keyed entries, shared by
/// every worker engine of a server. `K` carries a `uint64_t epoch`, a
/// nested `Hash` functor, and `kStaleEpochMessage` — the FLOS_AUDIT text
/// that names the cache when a hit's stored epoch disagrees with its key.
///
/// The mutex is a leaf lock in the concurrency contract (DESIGN.md); the
/// critical section is a hash probe, a list splice and one Value copy.
template <typename K, typename V>
class EpochLruCache {
 public:
  using Key = K;
  using Value = V;

  /// Keeps at most `capacity` entries (0 disables the cache: every lookup
  /// misses, every insert is dropped).
  explicit EpochLruCache(size_t capacity) : map_(capacity) {}

  EpochLruCache(const EpochLruCache&) = delete;
  EpochLruCache& operator=(const EpochLruCache&) = delete;

  /// On a hit copies the stored value into `*out`, freshens the entry's
  /// LRU position and returns true. Counts hits/misses.
  bool Lookup(const Key& key, Value* out) FLOS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const Entry* const entry = map_.Get(key);
    if (entry == nullptr) {
      ++misses_;
      return false;
    }
    // The stale-epoch ground truth: an entry can only be found under a key
    // built from the CURRENT graph epoch, so its stored epoch must agree.
    // Disagreement means state from an older topology is about to be
    // served as current — corruption, never a legal state.
    FLOS_AUDIT(entry->stored_epoch == key.epoch, Key::kStaleEpochMessage);
    *out = entry->value;
    ++hits_;
    return true;
  }

  /// Lookup for values whose empty state means "absent" (shared_ptr): the
  /// stored value on a hit, an empty one on a miss.
  Value Lookup(const Key& key) FLOS_EXCLUDES(mu_) {
    Value out{};
    Lookup(key, &out);
    return out;
  }

  /// Admits `value`, replacing an existing entry for the same key.
  void Insert(const Key& key, Value value) FLOS_EXCLUDES(mu_) {
    Entry entry{key.epoch, std::move(value)};
    MutexLock lock(mu_);
    map_.Put(key, std::move(entry));
  }

  /// Drops every entry (counters are kept).
  void Clear() FLOS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    map_.Clear();
  }

  size_t size() const FLOS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return map_.size();
  }
  uint64_t hits() const FLOS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return hits_;
  }
  uint64_t misses() const FLOS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return misses_;
  }

  /// Test-only: overwrites the stored redundant epoch of the entry for
  /// `key`, desynchronizing it from the key it is filed under, so the
  /// cache tests can prove the FLOS_AUDIT stale-epoch check fires. Returns
  /// false when the entry does not exist. Never call it from library or
  /// application code.
  bool CorruptEpochForTest(const Key& key, uint64_t stored_epoch)
      FLOS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    Entry* const entry = map_.Get(key);
    if (entry == nullptr) return false;
    entry->stored_epoch = stored_epoch;
    return true;
  }

 private:
  struct Entry {
    /// Redundant copy of key.epoch, audited on every hit.
    uint64_t stored_epoch = 0;
    Value value;
  };

  mutable Mutex mu_;
  LruMap<Key, Entry, typename Key::Hash> map_ FLOS_GUARDED_BY(mu_);
  uint64_t hits_ FLOS_GUARDED_BY(mu_) = 0;
  uint64_t misses_ FLOS_GUARDED_BY(mu_) = 0;
};

}  // namespace flos

#endif  // FLOS_UTIL_LRU_CACHE_H_
