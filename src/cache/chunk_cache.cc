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
  shards_.reserve(static_cast<size_t>(num_shards));
  const int64_t base = capacity_bytes / num_shards;
  const int64_t remainder = capacity_bytes % num_shards;
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        base + (s < remainder ? 1 : 0), policy->num_victim_classes()));
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
    total += shard->entries.bytes();
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
  return shard.entries.contains(key);
}

const ChunkData* ChunkCache::Peek(const CacheKey& key) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : it->second.value.data.get();
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
  it->second.clock_value = policy_->ClockValue(it->second.value.info);
  return it->second.value.data;
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
  it->second.clock_value = policy_->ClockValue(it->second.value.info);
  ++it->second.value.pin_count;
  return it->second.value.data.get();
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
  const int64_t capacity = shard.entries.capacity();
  auto existing = shard.entries.find(key);
  if (existing != shard.entries.end()) {
    Entry& entry = existing->second.value;
    if (entry.pin_count > 0) {
      // A fold reads the data through the pinned pointer, which only this
      // entry's ref keeps alive; swapping it out could free the cells
      // mid-fold. Treat the insert as a use only.
      existing->second.clock_value = policy_->ClockValue(entry.info);
      return true;
    }
    if (info.bytes > capacity) {
      ++shard.stats.rejected_inserts;
      return false;
    }
    // Shield the entry being replaced from its own eviction sweep.
    ++entry.pin_count;
    const bool fits =
        MakeRoom(shard, info, info.bytes - existing->second.bytes, demoted);
    --entry.pin_count;
    if (!fits) {
      ++shard.stats.rejected_inserts;
      return false;
    }
    shard.entries.Update(existing, info.bytes, policy_->VictimClass(info));
    entry.data = std::move(data);
    entry.info = info;
    existing->second.clock_value = policy_->ClockValue(info);
    *erase_sink = true;
    for (CacheListener* l : listeners_) l->OnUpdate(key, tuples);
    return true;
  }

  if (info.bytes > capacity || !MakeRoom(shard, info, info.bytes, demoted)) {
    ++shard.stats.rejected_inserts;
    return false;
  }
  shard.entries.Insert(key, Entry{std::move(data), info, 0}, info.bytes,
                       policy_->ClockValue(info), policy_->VictimClass(info));
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
      AAC_CHECK_EQ(it->second.value.pin_count, 0);
      EvictEntry(shard, key, shard.entries.Erase(it), /*demoted=*/nullptr);
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
  ++it->second.value.pin_count;
}

void ChunkCache::Unpin(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  AAC_CHECK(it != shard.entries.end());
  AAC_CHECK_GT(it->second.value.pin_count, 0);
  --it->second.value.pin_count;
}

void ChunkCache::ForEach(
    const std::function<void(const CacheEntryInfo&)>& fn) const {
  // Snapshot first so the callback runs without a shard lock and may call
  // back into the cache (snapshot writers Peek every visited key).
  std::vector<CacheEntryInfo> infos;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (const auto& [key, slot] : shard->entries) {
      infos.push_back(slot.value.info);
    }
  }
  for (const CacheEntryInfo& info : infos) fn(info);
}

bool ChunkCache::ValidateInvariants() const {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    const bool ok = shard->entries.Validate(
        [&](const CacheKey& key, const auto& slot) {
          const Entry& entry = slot.value;
          return key == entry.info.key && entry.info.bytes == slot.bytes &&
                 entry.pin_count >= 0 &&
                 slot.victim_class == policy_->VictimClass(entry.info);
        });
    if (!ok) return false;
  }
  return true;
}

int64_t ChunkCache::TotalPinCount() const {
  int64_t pins = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (const auto& [key, slot] : shard->entries) {
      pins += slot.value.pin_count;
    }
  }
  return pins;
}

bool ChunkCache::MakeRoom(Shard& shard, const CacheEntryInfo& incoming,
                          int64_t bytes, std::vector<Demoted>* demoted) {
  // Victims are taken class by class (the two-level policy evicts all
  // cache-computed chunks before touching any backend chunk); within a
  // class, the weighted CLOCK decides.
  return shard.entries.MakeRoom(
      bytes,
      [&](const CacheKey& key, Entry&& victim) {
        shard.mutex.AssertHeld();
        EvictEntry(shard, key, std::move(victim), demoted);
      },
      [&](const CacheKey& /*key*/, const Entry& entry) {
        return entry.pin_count == 0 &&
               policy_->CanReplace(incoming, entry.info);
      },
      [&](int victim_class) {
        return policy_->MayReplaceClass(incoming, victim_class);
      });
}

void ChunkCache::EvictEntry(Shard& shard, const CacheKey& key, Entry&& entry,
                            std::vector<Demoted>* demoted) {
  if (demoted != nullptr && sink_ != nullptr) {
    // Demotion: the bytes left the hot budget in this same critical
    // section, so the entry is never charged to two tiers at once. The
    // sink sees the data only after the caller drops the shard lock.
    ++shard.stats.demotions;
    shard.stats.demoted_bytes += entry.info.bytes;
    demoted->push_back(Demoted{entry.info, std::move(entry.data)});
  }
  ++shard.stats.evictions;
  for (CacheListener* l : listeners_) l->OnEvict(key);
}

}  // namespace aac
