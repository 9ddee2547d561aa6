#include "cache/chunk_cache.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace aac {

ChunkCache::ChunkCache(int64_t capacity_bytes, int64_t bytes_per_tuple,
                       const ReplacementPolicy* policy, int num_shards)
    : capacity_bytes_(capacity_bytes),
      bytes_per_tuple_(bytes_per_tuple),
      policy_(policy) {
  AAC_CHECK_GE(capacity_bytes, 0);
  AAC_CHECK_GT(bytes_per_tuple, 0);
  AAC_CHECK(policy != nullptr);
  AAC_CHECK_GE(num_shards, 1);
  const auto classes = static_cast<size_t>(policy->num_victim_classes());
  AAC_CHECK_GE(policy->num_victim_classes(), 1);
  shards_.reserve(static_cast<size_t>(num_shards));
  const int64_t base = capacity_bytes / num_shards;
  const int64_t remainder = capacity_bytes % num_shards;
  for (int s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (s < remainder ? 1 : 0);
    // The shard is not yet published, but its ring/accounting fields are
    // lock-guarded — initialize under the (uncontended) lock so the
    // thread-safety analysis sees a uniform discipline.
    MutexLock lock(shard->mutex);
    shard->rings.resize(classes);
    shard->hands.resize(classes);
    for (size_t c = 0; c < classes; ++c) {
      shard->hands[c] = shard->rings[c].end();
    }
    shard->class_bytes.assign(classes, 0);
    shards_.push_back(std::move(shard));
  }
}

void ChunkCache::AddListener(CacheListener* listener) {
  AAC_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

int64_t ChunkCache::bytes_used() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->bytes_used;
  }
  return total;
}

size_t ChunkCache::num_entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

CacheStats ChunkCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.inserts += shard->stats.inserts;
    total.rejected_inserts += shard->stats.rejected_inserts;
    total.evictions += shard->stats.evictions;
    total.demotions += shard->stats.demotions;
    total.demoted_bytes += shard->stats.demoted_bytes;
  }
  return total;
}

void ChunkCache::ResetStats() {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->stats = CacheStats();
  }
}

bool ChunkCache::Contains(const CacheKey& key) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  return shard.entries.count(key) > 0;
}

const ChunkData* ChunkCache::Get(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  it->second.clock_value = policy_->ClockValue(it->second.info);
  return it->second.data.get();
}

const ChunkData* ChunkCache::Peek(const CacheKey& key) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : it->second.data.get();
}

ChunkRef ChunkCache::GetRef(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  it->second.clock_value = policy_->ClockValue(it->second.info);
  return it->second.data;
}

const ChunkData* ChunkCache::GetPinned(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  it->second.clock_value = policy_->ClockValue(it->second.info);
  ++it->second.pin_count;
  return it->second.data.get();
}

bool ChunkCache::Insert(ChunkData data, double benefit, ChunkSource source) {
  return Insert(std::make_shared<const ChunkData>(std::move(data)), benefit,
                source);
}

bool ChunkCache::Insert(ChunkRef data, double benefit, ChunkSource source) {
  AAC_CHECK(data != nullptr);
  const CacheKey key{data->gb, data->chunk};
  CacheEntryInfo info;
  info.key = key;
  info.bytes = data->LogicalBytes(bytes_per_tuple_);
  info.benefit = benefit;
  info.source = source;
  const int64_t tuples = data->tuple_count();

  Shard& shard = ShardFor(key);
  std::vector<Demoted> demoted;
  bool erase_sink = false;
  bool inserted;
  {
    MutexLock lock(shard.mutex);
    inserted = InsertLocked(shard, key, info, std::move(data), tuples,
                            &demoted, &erase_sink);
  }
  // Sink calls run with no shard lock held. Victims demote even when the
  // insert itself was ultimately rejected — their bytes already left the
  // hot budget. A successful insert also purges the key from lower tiers
  // (single authoritative copy; a stale demoted blob must never be
  // promoted over this fresher data). The sink gets its own copy of each
  // victim: a reader may still hold the victim's ref, and shared data is
  // never moved from.
  if (sink_ != nullptr) {
    for (const Demoted& d : demoted) {
      sink_->OnDemote(d.info, ChunkData(*d.data));
    }
    if (erase_sink) sink_->OnErase(key);
  }
  return inserted;
}

bool ChunkCache::InsertLocked(Shard& shard, const CacheKey& key,
                              const CacheEntryInfo& info, ChunkRef&& data,
                              int64_t tuples, std::vector<Demoted>* demoted,
                              bool* erase_sink) {
  auto existing = shard.entries.find(key);
  if (existing != shard.entries.end()) {
    Entry& entry = existing->second;
    if (entry.pin_count > 0) {
      // A fold reads the data through the pinned pointer, which only this
      // entry's ref keeps alive; swapping it out could free the cells
      // mid-fold. Treat the insert as a use only.
      entry.clock_value = policy_->ClockValue(entry.info);
      return true;
    }
    if (info.bytes > shard.capacity) {
      ++shard.stats.rejected_inserts;
      return false;
    }
    const int64_t needed =
        shard.bytes_used - entry.info.bytes + info.bytes - shard.capacity;
    if (needed > 0) {
      // Shield the entry being replaced from its own eviction sweep.
      ++entry.pin_count;
      const bool evicted = EvictFor(shard, info, needed, demoted);
      --entry.pin_count;
      if (!evicted) {
        ++shard.stats.rejected_inserts;
        return false;
      }
    }
    const int new_class = policy_->VictimClass(info);
    AAC_CHECK(new_class >= 0 && new_class < policy_->num_victim_classes());
    const int old_class = entry.victim_class;
    shard.bytes_used += info.bytes - entry.info.bytes;
    shard.class_bytes[static_cast<size_t>(old_class)] -= entry.info.bytes;
    shard.class_bytes[static_cast<size_t>(new_class)] += info.bytes;
    if (new_class != old_class) {
      auto& old_ring = shard.rings[static_cast<size_t>(old_class)];
      auto& old_hand = shard.hands[static_cast<size_t>(old_class)];
      if (old_hand == entry.ring_pos) ++old_hand;
      old_ring.erase(entry.ring_pos);
      auto& new_ring = shard.rings[static_cast<size_t>(new_class)];
      new_ring.push_back(key);
      entry.ring_pos = std::prev(new_ring.end());
      if (shard.hands[static_cast<size_t>(new_class)] == new_ring.end()) {
        shard.hands[static_cast<size_t>(new_class)] = entry.ring_pos;
      }
    }
    entry.data = std::move(data);
    entry.info = info;
    entry.clock_value = policy_->ClockValue(info);
    entry.victim_class = new_class;
    *erase_sink = true;
    for (CacheListener* l : listeners_) l->OnUpdate(key, tuples);
    return true;
  }

  if (info.bytes > shard.capacity) {
    ++shard.stats.rejected_inserts;
    return false;
  }

  const int64_t needed = shard.bytes_used + info.bytes - shard.capacity;
  if (needed > 0 && !EvictFor(shard, info, needed, demoted)) {
    ++shard.stats.rejected_inserts;
    return false;
  }

  const int victim_class = policy_->VictimClass(info);
  AAC_CHECK(victim_class >= 0 && victim_class < policy_->num_victim_classes());
  auto& ring = shard.rings[static_cast<size_t>(victim_class)];
  Entry entry;
  entry.data = std::move(data);
  entry.info = info;
  entry.clock_value = policy_->ClockValue(info);
  entry.victim_class = victim_class;
  ring.push_back(key);
  entry.ring_pos = std::prev(ring.end());
  if (shard.hands[static_cast<size_t>(victim_class)] == ring.end()) {
    shard.hands[static_cast<size_t>(victim_class)] = entry.ring_pos;
  }
  shard.bytes_used += info.bytes;
  shard.class_bytes[static_cast<size_t>(victim_class)] += info.bytes;
  shard.entries.emplace(key, std::move(entry));
  ++shard.stats.inserts;
  *erase_sink = true;
  for (CacheListener* l : listeners_) l->OnInsert(key, tuples);
  return true;
}

bool ChunkCache::Remove(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  bool removed = false;
  {
    MutexLock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      AAC_CHECK_EQ(it->second.pin_count, 0);
      EvictEntry(shard, it, /*demoted=*/nullptr);
      removed = true;
    }
  }
  // Explicit removal is invalidation: purge lower tiers unconditionally —
  // the key may live only in warm/disk after a hot eviction. The return
  // value still reports hot-tier residency only.
  if (sink_ != nullptr) sink_->OnErase(key);
  return removed;
}

void ChunkCache::Boost(const CacheKey& key, double amount) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  it->second.clock_value =
      std::min(it->second.clock_value + amount, kMaxClockValue);
}

void ChunkCache::Pin(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  AAC_CHECK(it != shard.entries.end());
  ++it->second.pin_count;
}

void ChunkCache::Unpin(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  AAC_CHECK(it != shard.entries.end());
  AAC_CHECK_GT(it->second.pin_count, 0);
  --it->second.pin_count;
}

void ChunkCache::ForEach(
    const std::function<void(const CacheEntryInfo&)>& fn) const {
  // Snapshot first so the callback runs without a shard lock and may call
  // back into the cache (snapshot writers Peek every visited key).
  std::vector<CacheEntryInfo> infos;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries) infos.push_back(entry.info);
  }
  for (const CacheEntryInfo& info : infos) fn(info);
}

bool ChunkCache::ValidateInvariants() const {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    int64_t bytes = 0;
    std::vector<int64_t> class_bytes(shard->class_bytes.size(), 0);
    size_t ring_members = 0;
    for (const auto& [key, entry] : shard->entries) {
      if (!(key == entry.info.key)) return false;
      if (entry.info.bytes < 0 || entry.pin_count < 0) return false;
      if (entry.victim_class < 0 ||
          entry.victim_class >= static_cast<int>(shard->rings.size())) {
        return false;
      }
      if (!(*entry.ring_pos == key)) return false;
      bytes += entry.info.bytes;
      class_bytes[static_cast<size_t>(entry.victim_class)] += entry.info.bytes;
    }
    if (bytes != shard->bytes_used) return false;
    if (shard->bytes_used > shard->capacity) return false;
    if (class_bytes != shard->class_bytes) return false;
    for (size_t c = 0; c < shard->rings.size(); ++c) {
      const auto& ring = shard->rings[c];
      ring_members += ring.size();
      for (const CacheKey& key : ring) {
        auto it = shard->entries.find(key);
        if (it == shard->entries.end()) return false;
        if (it->second.victim_class != static_cast<int>(c)) return false;
      }
      // The hand is either parked at end() or on a live ring member.
      const auto& hand = shard->hands[c];
      if (hand != ring.end() && shard->entries.count(*hand) == 0) return false;
    }
    if (ring_members != shard->entries.size()) return false;
  }
  return true;
}

int64_t ChunkCache::TotalPinCount() const {
  int64_t pins = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries) pins += entry.pin_count;
  }
  return pins;
}

bool ChunkCache::EvictFor(Shard& shard, const CacheEntryInfo& incoming,
                          int64_t needed, std::vector<Demoted>* demoted) {
  // Fast reject: not enough evictable bytes in the classes this chunk may
  // replace — no point sweeping.
  int64_t available = 0;
  for (int victim_class = 0; victim_class < policy_->num_victim_classes();
       ++victim_class) {
    if (policy_->MayReplaceClass(incoming, victim_class)) {
      available += shard.class_bytes[static_cast<size_t>(victim_class)];
    }
  }
  if (available < needed) return false;

  // Victims are taken class by class (the two-level policy evicts all
  // cache-computed chunks before touching any backend chunk). Within a
  // class, the weighted CLOCK decides.
  int64_t freed = 0;
  for (int victim_class = 0;
       victim_class < policy_->num_victim_classes() && freed < needed;
       ++victim_class) {
    if (!policy_->MayReplaceClass(incoming, victim_class)) continue;
    auto& ring = shard.rings[static_cast<size_t>(victim_class)];
    auto& hand = shard.hands[static_cast<size_t>(victim_class)];
    // Bound the sweep: clock values are capped at kMaxClockValue (48), so
    // every entry reaches zero within 64 decrement visits. A revolution
    // that finds no eligible victim (all pinned / policy-protected) ends
    // the class immediately.
    int64_t budget = static_cast<int64_t>(ring.size()) * 64 + 64;
    int64_t remaining_in_rev = static_cast<int64_t>(ring.size());
    bool eligible_in_rev = false;
    while (freed < needed && budget-- > 0 && !ring.empty()) {
      if (hand == ring.end()) hand = ring.begin();
      if (remaining_in_rev-- <= 0) {
        if (!eligible_in_rev) break;
        remaining_in_rev = static_cast<int64_t>(ring.size());
        eligible_in_rev = false;
      }
      auto it = shard.entries.find(*hand);
      AAC_CHECK(it != shard.entries.end());
      Entry& entry = it->second;
      if (entry.pin_count > 0 || !policy_->CanReplace(incoming, entry.info)) {
        ++hand;
        continue;
      }
      eligible_in_rev = true;
      if (entry.clock_value <= 0.0) {
        freed += entry.info.bytes;
        EvictEntry(shard, it, demoted);  // advances the hand past the victim
        continue;
      }
      entry.clock_value -= 1.0;
      ++hand;
    }
  }
  return freed >= needed;
}

void ChunkCache::EvictEntry(Shard& shard, EntryMap::iterator it,
                            std::vector<Demoted>* demoted) {
  const CacheKey key = it->first;
  const auto victim_class = static_cast<size_t>(it->second.victim_class);
  if (shard.hands[victim_class] == it->second.ring_pos) {
    ++shard.hands[victim_class];
  }
  shard.rings[victim_class].erase(it->second.ring_pos);
  shard.bytes_used -= it->second.info.bytes;
  shard.class_bytes[victim_class] -= it->second.info.bytes;
  if (demoted != nullptr && sink_ != nullptr) {
    // Demotion: the bytes left the hot budget in this same critical
    // section, so the entry is never charged to two tiers at once. The
    // sink sees the data only after the caller drops the shard lock.
    ++shard.stats.demotions;
    shard.stats.demoted_bytes += it->second.info.bytes;
    demoted->push_back(
        Demoted{it->second.info, std::move(it->second.data)});
  }
  shard.entries.erase(it);
  ++shard.stats.evictions;
  for (CacheListener* l : listeners_) l->OnEvict(key);
}

}  // namespace aac
