#ifndef AAC_CACHE_CLOCK_MAP_H_
#define AAC_CACHE_CLOCK_MAP_H_

#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"

namespace aac {

/// The weighted-CLOCK store under every cache tier (ChunkCache shards,
/// WarmTier, DiskTier, ResultCache): the entry map, one ring and hand per
/// victim class, the per-class and total byte ledger, the one eviction
/// sweep and its self-check. The owner keeps its lock, its payload
/// (`Value`), its stats and its API; the store has no lock of its own.
///
/// MakeRoom's sweep (DESIGN.md §3) takes the classes in order. In a class
/// the hand walks the ring in insertion order: an entry the owner calls
/// ineligible is passed over without a decrement, an eligible entry at
/// clock value <= 0 is evicted, any other is decremented by one. A
/// revolution (as many visits as the ring held when it began) that finds
/// nothing eligible ends the class, and a class gets at most
/// kVisitsPerEntry visits per entry. A hand parked at end() moves onto the
/// next entry pushed to its ring.
template <typename Key, typename Value, typename Hash>
class ClockMap {
 public:
  /// Owners keep clock values <= 48 (ChunkCache::kMaxClockValue), so no
  /// sweep of theirs reaches this bound.
  static constexpr int64_t kVisitsPerEntry = 64;

  struct Slot {
    Value value;
    int64_t bytes = 0;
    double clock_value = 0.0;
    int victim_class = 0;

   private:
    friend class ClockMap;
    typename std::list<Key>::iterator ring_pos;
  };

  using Map = std::unordered_map<Key, Slot, Hash>;
  using iterator = typename Map::iterator;
  using const_iterator = typename Map::const_iterator;

  /// The default predicate: every entry, every class.
  struct Always {
    template <typename... Args>
    bool operator()(const Args&...) const {
      return true;
    }
  };

  explicit ClockMap(int64_t capacity, int num_classes = 1)
      : capacity_(capacity),
        rings_(static_cast<size_t>(num_classes)),
        hands_(static_cast<size_t>(num_classes)),
        class_bytes_(static_cast<size_t>(num_classes), 0) {
    AAC_CHECK_GE(capacity, 0);
    AAC_CHECK_GE(num_classes, 1);
    for (size_t c = 0; c < rings_.size(); ++c) hands_[c] = rings_[c].end();
  }

  ClockMap(const ClockMap&) = delete;
  ClockMap& operator=(const ClockMap&) = delete;

  int64_t capacity() const { return capacity_; }
  int64_t bytes() const { return bytes_; }
  size_t size() const { return map_.size(); }
  iterator begin() { return map_.begin(); }
  iterator end() { return map_.end(); }
  const_iterator begin() const { return map_.begin(); }
  const_iterator end() const { return map_.end(); }
  iterator find(const Key& key) { return map_.find(key); }
  const_iterator find(const Key& key) const { return map_.find(key); }
  bool contains(const Key& key) const { return map_.count(key) > 0; }

  /// Adds an absent key at the tail of its class's ring; the caller has
  /// made room.
  Slot& Insert(const Key& key, Value value, int64_t bytes, double clock_value,
               int victim_class = 0) {
    auto [it, inserted] = map_.try_emplace(key);
    AAC_CHECK(inserted);
    Slot& slot = it->second;
    slot.value = std::move(value);
    slot.clock_value = clock_value;
    Charge(key, slot, bytes, victim_class);
    return slot;
  }

  /// Re-charges a resident entry at a new size and class. A class change
  /// moves it to the tail of the new class's ring.
  void Update(iterator it, int64_t bytes, int victim_class = 0) {
    Slot& slot = it->second;
    if (victim_class == slot.victim_class) {
      bytes_ += bytes - slot.bytes;
      class_bytes_[static_cast<size_t>(victim_class)] += bytes - slot.bytes;
      slot.bytes = bytes;
      return;
    }
    Uncharge(slot);
    Charge(it->first, slot, bytes, victim_class);
  }

  /// Removes the entry (a hand on it moves to the next ring member) and
  /// returns its payload.
  Value Erase(iterator it) {
    Uncharge(it->second);
    Value value = std::move(it->second.value);
    map_.erase(it);
    return value;
  }

  /// Sweeps until bytes() + `incoming` fits the capacity; true on success.
  /// Only classes with `class_ok(c)` are swept, and none when their bytes
  /// cannot cover the shortfall. `eligible(key, value)` says whether an
  /// entry may go now; `on_victim(key, value&&)` gets each victim after it
  /// left the store and may erase other entries.
  template <typename OnVictim, typename Eligible = Always,
            typename ClassOk = Always>
  bool MakeRoom(int64_t incoming, OnVictim&& on_victim,
                Eligible&& eligible = Eligible(),
                ClassOk&& class_ok = ClassOk()) {
    const int64_t needed = bytes_ + incoming - capacity_;
    if (needed <= 0) return true;
    int64_t available = 0;
    for (size_t c = 0; c < rings_.size(); ++c) {
      if (class_ok(static_cast<int>(c))) available += class_bytes_[c];
    }
    if (available < needed) return false;

    int64_t freed = 0;
    for (size_t c = 0; c < rings_.size() && freed < needed; ++c) {
      if (!class_ok(static_cast<int>(c))) continue;
      auto& ring = rings_[c];
      auto& hand = hands_[c];
      int64_t budget = kVisitsPerEntry * static_cast<int64_t>(ring.size());
      int64_t remaining_in_rev = static_cast<int64_t>(ring.size());
      bool eligible_in_rev = false;
      while (freed < needed && budget-- > 0 && !ring.empty()) {
        if (hand == ring.end()) hand = ring.begin();
        if (remaining_in_rev-- <= 0) {
          if (!eligible_in_rev) break;
          remaining_in_rev = static_cast<int64_t>(ring.size());
          eligible_in_rev = false;
        }
        auto it = map_.find(*hand);
        AAC_CHECK(it != map_.end());
        Slot& slot = it->second;
        if (!eligible(it->first, slot.value)) {
          ++hand;
          continue;
        }
        eligible_in_rev = true;
        if (slot.clock_value <= 0.0) {
          freed += slot.bytes;
          const Key key = it->first;
          on_victim(key, Erase(it));  // advances the hand past the victim
          continue;
        }
        slot.clock_value -= 1.0;
        ++hand;
      }
    }
    return freed >= needed;
  }

  /// True when every entry sits at its recorded position in its own
  /// class's ring, every ring member is an entry of that class, hands are
  /// parked or on a member, both ledgers equal the entry sums, the total
  /// fits the capacity, and `entry_ok(key, slot)` holds for every entry.
  template <typename EntryOk = Always>
  bool Validate(EntryOk&& entry_ok = EntryOk()) const {
    std::vector<int64_t> class_bytes(class_bytes_.size(), 0);
    for (const auto& [key, slot] : map_) {
      if (slot.victim_class < 0 ||
          slot.victim_class >= static_cast<int>(rings_.size()) ||
          slot.bytes < 0 || !(*slot.ring_pos == key) ||
          !entry_ok(key, slot)) {
        return false;
      }
      class_bytes[static_cast<size_t>(slot.victim_class)] += slot.bytes;
    }
    int64_t total = 0;
    size_t members = 0;
    for (size_t c = 0; c < rings_.size(); ++c) {
      for (const Key& key : rings_[c]) {
        auto it = map_.find(key);
        if (it == map_.end() || it->second.victim_class != static_cast<int>(c))
          return false;
      }
      if (hands_[c] != rings_[c].end() && !contains(*hands_[c])) return false;
      total += class_bytes[c];
      members += rings_[c].size();
    }
    return class_bytes == class_bytes_ && total == bytes_ &&
           bytes_ <= capacity_ && members == map_.size();
  }

 private:
  friend struct ClockMapTestPeer;

  void Charge(const Key& key, Slot& slot, int64_t bytes, int victim_class) {
    AAC_CHECK(victim_class >= 0 &&
              victim_class < static_cast<int>(rings_.size()));
    const auto c = static_cast<size_t>(victim_class);
    slot.bytes = bytes;
    slot.victim_class = victim_class;
    rings_[c].push_back(key);
    slot.ring_pos = std::prev(rings_[c].end());
    if (hands_[c] == rings_[c].end()) hands_[c] = slot.ring_pos;
    bytes_ += bytes;
    class_bytes_[c] += bytes;
  }

  void Uncharge(Slot& slot) {
    const auto c = static_cast<size_t>(slot.victim_class);
    if (hands_[c] == slot.ring_pos) ++hands_[c];
    rings_[c].erase(slot.ring_pos);
    bytes_ -= slot.bytes;
    class_bytes_[c] -= slot.bytes;
  }

  const int64_t capacity_;
  Map map_;
  std::vector<std::list<Key>> rings_;
  std::vector<typename std::list<Key>::iterator> hands_;
  std::vector<int64_t> class_bytes_;
  int64_t bytes_ = 0;
};

}  // namespace aac

#endif  // AAC_CACHE_CLOCK_MAP_H_
