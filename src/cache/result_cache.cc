#include "cache/result_cache.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <utility>

#include "cache/replacement.h"
#include "util/check.h"

namespace aac {

ResultCache::ResultCache(Config config)
    : config_(config), entries_(config.capacity_bytes) {
  AAC_CHECK(config_.capacity_bytes > 0);
  AAC_CHECK(config_.bytes_per_tuple > 0);
  AAC_CHECK(config_.max_entry_fraction > 0.0 &&
            config_.max_entry_fraction <= 1.0);
}

bool ResultCache::Probe(const ResultCacheKey& key, std::vector<ChunkRef>* out) {
  AAC_CHECK(out != nullptr);
  MutexLock lock(mutex_);
  ++stats_.probes;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  it->second.clock_value =
      ReplacementPolicy::NormalizedWeight(it->second.value.benefit);
  // Refs only; the cells are shared, not copied.
  *out = it->second.value.chunks;
  return true;
}

bool ResultCache::Contains(const ResultCacheKey& key) const {
  MutexLock lock(mutex_);
  return entries_.contains(key);
}

namespace {

// The stored payload is the ANSWER, not the raw chunks: cells outside the
// key's value ranges are dropped at admission. Chunk alignment (ids) is
// kept — invalidation maps base writes onto it — and a hit's RefineResult
// rows are bit-identical to a cold fold's, because RefineResult filters
// with exactly this predicate. Trimming is what makes dashboard-tile
// entries small: a tile slicing 10% of each covering chunk charges 10% of
// the chunk's bytes. A chunk the key covers whole keeps the caller's ref.
std::vector<ChunkRef> TrimToKey(const ResultCacheKey& key,
                                const std::vector<ChunkRef>& chunks) {
  const int nd = key.level.size();
  auto inside = [&](const Cell& cell) {
    for (int d = 0; d < nd; ++d) {
      const auto [lo, hi] = key.ranges[static_cast<size_t>(d)];
      const int32_t v = cell.values[static_cast<size_t>(d)];
      if (v < lo || v >= hi) return false;
    }
    return true;
  };
  std::vector<ChunkRef> out;
  out.reserve(chunks.size());
  for (const ChunkRef& data : chunks) {
    if (std::all_of(data->cells.begin(), data->cells.end(), inside)) {
      out.push_back(data);
      continue;
    }
    ChunkData trimmed;
    trimmed.gb = data->gb;
    trimmed.chunk = data->chunk;
    std::copy_if(data->cells.begin(), data->cells.end(),
                 std::back_inserter(trimmed.cells), inside);
    out.push_back(std::make_shared<const ChunkData>(std::move(trimmed)));
  }
  return out;
}

}  // namespace

bool ResultCache::MaybeAdmit(const ResultCacheKey& key, GroupById gb,
                             const std::vector<ChunkRef>& chunks,
                             double cost_tuples) {
  std::vector<ChunkRef> answer = TrimToKey(key, chunks);
  int64_t bytes = 0;
  std::vector<ChunkId> ids;
  ids.reserve(answer.size());
  for (const ChunkRef& data : answer) {
    AAC_DCHECK_EQ(data->gb, gb);
    bytes += data->LogicalBytes(config_.bytes_per_tuple);
    ids.push_back(data->chunk);
  }
  std::sort(ids.begin(), ids.end());

  MutexLock lock(mutex_);
  if (cost_tuples < config_.min_admit_cost_tuples ||
      static_cast<double>(bytes) >
          config_.max_entry_fraction *
              static_cast<double>(config_.capacity_bytes)) {
    ++stats_.rejected;
    return entries_.contains(key);
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Replace in place (e.g. re-admission after invalidation dropped the
    // old answer between this query's probe and its finish).
    if (!MakeRoom(bytes - it->second.bytes, &key)) {
      ++stats_.rejected;
      return true;  // old answer stays; it is still correct
    }
    entries_.Update(it, bytes);  // the sweep never erases `key`
    Entry& entry = it->second.value;
    entry.gb = gb;
    entry.chunks = std::move(answer);
    entry.chunk_ids = std::move(ids);
    entry.benefit = cost_tuples;
    it->second.clock_value = ReplacementPolicy::NormalizedWeight(cost_tuples);
    ++stats_.admitted;
    return true;
  }
  if (!MakeRoom(bytes, /*protect=*/nullptr)) {
    ++stats_.rejected;
    return false;
  }
  entries_.Insert(key,
                  Entry{gb, std::move(answer), std::move(ids), cost_tuples},
                  bytes, ReplacementPolicy::NormalizedWeight(cost_tuples));
  ++stats_.admitted;
  return true;
}

bool ResultCache::MakeRoom(int64_t bytes, const ResultCacheKey* protect) {
  return entries_.MakeRoom(
      bytes,
      [&](const ResultCacheKey& /*key*/, Entry&& /*victim*/) {
        mutex_.AssertHeld();
        ++stats_.evictions;
      },
      [&](const ResultCacheKey& key, const Entry& /*entry*/) {
        return protect == nullptr || !(key == *protect);
      });
}

template <typename Stale>
int64_t ResultCache::Invalidate(Stale stale) {
  int64_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    if (stale(it->second.value)) {
      entries_.Erase(it);
      ++dropped;
    }
    it = next;
  }
  stats_.invalidated += dropped;
  return dropped;
}

int64_t ResultCache::InvalidateForBaseChunks(
    const ChunkGrid& grid, std::span<const ChunkId> base_chunks) {
  const GroupById base = grid.lattice().base_id();
  MutexLock lock(mutex_);
  return Invalidate([&](const Entry& entry) {
    for (ChunkId base_chunk : base_chunks) {
      const ChunkId affected =
          grid.ChildChunkNumber(base, base_chunk, entry.gb);
      if (std::binary_search(entry.chunk_ids.begin(), entry.chunk_ids.end(),
                             affected)) {
        return true;
      }
    }
    return false;
  });
}

void ResultCache::OnInsert(const CacheKey& key, int64_t tuples) {
  // A chunk becoming cached doesn't change what any stored answer means.
  (void)key;
  (void)tuples;
}

void ResultCache::OnUpdate(const CacheKey& key, int64_t tuples) {
  (void)tuples;
  MutexLock lock(mutex_);
  Invalidate([&](const Entry& entry) {
    return entry.gb == key.gb &&
           std::binary_search(entry.chunk_ids.begin(), entry.chunk_ids.end(),
                              key.chunk);
  });
}

void ResultCache::OnEvict(const CacheKey& key) {
  // Capacity eviction in the chunk cache never makes a stored answer wrong;
  // explicit removals that DO signal staleness (base writes) flow through
  // CacheInvalidator -> InvalidateForBaseChunks instead, because from here
  // an invalidation Remove is indistinguishable from a capacity eviction.
  (void)key;
}

ResultCacheStats ResultCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void ResultCache::ResetStats() {
  MutexLock lock(mutex_);
  stats_ = ResultCacheStats();
}

int64_t ResultCache::bytes_used() const {
  MutexLock lock(mutex_);
  return entries_.bytes();
}

size_t ResultCache::num_entries() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

bool ResultCache::ValidateInvariants() const {
  MutexLock lock(mutex_);
  return entries_.Validate([&](const ResultCacheKey& /*key*/,
                               const auto& slot) {
    const Entry& entry = slot.value;
    int64_t bytes = 0;
    for (const ChunkRef& data : entry.chunks) {
      if (data->gb != entry.gb) return false;
      bytes += data->LogicalBytes(config_.bytes_per_tuple);
    }
    return bytes == slot.bytes &&
           std::is_sorted(entry.chunk_ids.begin(), entry.chunk_ids.end()) &&
           entry.chunk_ids.size() == entry.chunks.size();
  });
}

}  // namespace aac
