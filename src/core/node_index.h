// Epoch-versioned node-keyed maps for reusable query workspaces.
//
// FLoS touches a tiny fraction of the graph per query but used to pay
// allocator and rehash costs for a fresh `std::unordered_map` on every call.
// `NodeMap<V>` keeps its storage across queries and resets in O(1) by
// bumping an epoch counter: a slot whose stamp differs from the current
// epoch is simply "absent". Two backends share one interface:
//
//   * dense  — one {stamp, value} slot per NodeId, so a lookup reads both
//     with one random access. O(1), but O(NumNodes()) memory per
//     map. The right choice for in-memory CSR graphs, where node count is
//     known and a few bytes per node per worker thread is cheap (see
//     GraphAccessor::DenseIndexHint).
//   * sparse — open-addressing hash table (linear probing, power-of-two
//     capacity, epoch-stamped slots). Memory proportional to the visited
//     set, so it also serves disk-resident graphs whose node count may
//     dwarf what a per-thread dense array should pin.
//
// Neither backend supports erase; FLoS never removes a visited node within
// a query, and cross-query cleanup is the epoch bump. Both backends keep
// their capacity across Reset(), so steady-state queries allocate nothing.

#ifndef FLOS_CORE_NODE_INDEX_H_
#define FLOS_CORE_NODE_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"

namespace flos {

/// Epoch-resettable map from NodeId to V with dense and open-addressing
/// backends. Not thread-safe; one instance per query workspace.
template <typename V>
class NodeMap {
 public:
  NodeMap() = default;

  /// Selects the backend and prepares an empty map. `num_nodes` is the
  /// graph's node count (bounds every key); `dense` picks the stamp-array
  /// backend. Callable repeatedly; switching backends drops storage.
  void Configure(uint64_t num_nodes, bool dense) {
    if (dense_ != dense) {
      dense_slots_.clear();
      dense_slots_.shrink_to_fit();
      slots_.clear();
      slots_.shrink_to_fit();
      epoch_ = 0;
    }
    dense_ = dense;
    if (dense_) {
      dense_slots_.resize(num_nodes);
    } else if (slots_.empty()) {
      slots_.resize(kInitialSlots);
    }
    Reset();
  }

  /// Forgets every entry in O(1); capacity is retained.
  void Reset() {
    ++epoch_;
    size_ = 0;
    if (epoch_ == 0) {  // wrapped: stale stamps could alias; hard-clear
      epoch_ = 1;
      if (dense_) {
        for (DenseSlot& s : dense_slots_) s.stamp = 0;
      } else {
        for (Slot& s : slots_) s.stamp = 0;
      }
    }
    FLOS_AUDIT_SCOPE {
      // Epoch-aliasing ground truth: after a Reset no stored stamp may
      // equal (or exceed) the new epoch, otherwise a dead entry from an
      // earlier query would resurrect as live. O(capacity), audit only.
      if (dense_) {
        for (const DenseSlot& s : dense_slots_) {
          FLOS_CHECK_LT(s.stamp, epoch_, "stale stamp aliases the new epoch");
        }
      } else {
        for (const Slot& s : slots_) {
          FLOS_CHECK_LT(s.stamp, epoch_, "stale stamp aliases the new epoch");
        }
      }
    }
  }

  /// Number of live entries.
  uint32_t size() const { return size_; }

  /// Pointer to the value for `key`, or nullptr if absent. The pointer is
  /// invalidated by the next insertion (sparse backend may rehash).
  V* Find(NodeId key) {
    if (dense_) {
      FLOS_DCHECK(key < dense_slots_.size(), "NodeMap key out of range");
      DenseSlot& s = dense_slots_[key];
      // A stamp from the future would alias as "present" after the next
      // Reset; the wrap handling in Reset() must make this impossible.
      FLOS_DCHECK_LE(s.stamp, epoch_, "NodeMap stamp ahead of current epoch");
      return s.stamp == epoch_ ? &s.value : nullptr;
    }
    for (uint64_t i = Hash(key);; ++i) {
      Slot& s = slots_[i & (slots_.size() - 1)];
      FLOS_DCHECK_LE(s.stamp, epoch_, "NodeMap stamp ahead of current epoch");
      if (s.stamp != epoch_) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  const V* Find(NodeId key) const {
    return const_cast<NodeMap*>(this)->Find(key);
  }

  /// Pointer to the value for `key`, inserting a default-constructed V
  /// first if absent; `.second` is true iff it was inserted. One probe
  /// either way. The pointer is invalidated by the next insertion.
  std::pair<V*, bool> FindOrInsert(NodeId key) {
    if (dense_) {
      FLOS_DCHECK(key < dense_slots_.size(), "NodeMap key out of range");
      DenseSlot& s = dense_slots_[key];
      FLOS_DCHECK_LE(s.stamp, epoch_, "NodeMap stamp ahead of current epoch");
      if (s.stamp == epoch_) return {&s.value, false};
      s.stamp = epoch_;
      s.value = V{};
      ++size_;
      return {&s.value, true};
    }
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    for (uint64_t i = Hash(key);; ++i) {
      Slot& s = slots_[i & (slots_.size() - 1)];
      if (s.stamp != epoch_) {
        s.stamp = epoch_;
        s.key = key;
        s.value = V{};
        ++size_;
        return {&s.value, true};
      }
      if (s.key == key) return {&s.value, false};
    }
  }

 private:
  static constexpr size_t kInitialSlots = 1024;  // power of two

  struct DenseSlot {
    uint32_t stamp = 0;
    V value{};
  };

  struct Slot {
    uint32_t stamp = 0;
    NodeId key = 0;
    V value{};
  };

  static uint64_t Hash(NodeId key) {
    // Fibonacci multiplicative hash; ids are dense so this spreads runs.
    return static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull >> 32;
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(old.size() * 2);
    for (const Slot& s : old) {
      if (s.stamp != epoch_) continue;
      for (uint64_t i = Hash(s.key);; ++i) {
        Slot& dst = slots_[i & (slots_.size() - 1)];
        if (dst.stamp != epoch_) {
          dst = s;
          break;
        }
      }
    }
  }

  bool dense_ = false;
  uint32_t epoch_ = 0;
  uint32_t size_ = 0;
  std::vector<DenseSlot> dense_slots_;  // dense backend
  std::vector<Slot> slots_;             // sparse backend
};

}  // namespace flos

#endif  // FLOS_CORE_NODE_INDEX_H_
