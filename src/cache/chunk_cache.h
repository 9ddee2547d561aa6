#ifndef AAC_CACHE_CHUNK_CACHE_H_
#define AAC_CACHE_CHUNK_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache_entry.h"
#include "cache/clock_map.h"
#include "cache/replacement.h"
#include "storage/chunk_data.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Running totals of cache activity.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t rejected_inserts = 0;
  int64_t evictions = 0;
  /// Capacity evictions handed to the demotion sink (subset of
  /// `evictions`; explicit Removes are never demoted).
  int64_t demotions = 0;
  /// Logical bytes of those demoted entries. Counted in the same critical
  /// section that subtracts them from the shard's bytes_used, so there is
  /// no window where a migrating entry is charged to both tiers.
  int64_t demoted_bytes = 0;
};

/// Receiver of the hot tier's eviction victims — the hook that turns
/// eviction from "free the bytes" into a demotion pipeline (warm tier).
///
/// Concurrency contract: unlike CacheListener, every method is invoked
/// with NO shard lock held (the victim's bytes have already left the hot
/// accounting atomically). Implementations may take their own locks and
/// perform heavy work (compression, I/O) but must not call back into the
/// hot cache, which fixes the lock order "hot shard -> sink".
class DemotionSink {
 public:
  virtual ~DemotionSink() = default;

  /// A capacity eviction pushed this entry out of the hot tier; the sink
  /// receives its own copy of the data (readers may still share the
  /// evicted chunk).
  virtual void OnDemote(const CacheEntryInfo& info, ChunkData&& data) = 0;

  /// The key's authoritative copy changed or vanished: a successful Insert
  /// made (or refreshed) a hot-resident copy, or an explicit Remove
  /// (invalidation) dropped the key — possibly one the hot tier never
  /// held, so lower tiers are purged too. Sinks drop their copies; stale
  /// demoted data must never be promoted later.
  virtual void OnErase(const CacheKey& key) = 0;
};

/// Middle-tier chunk cache with weighted-CLOCK replacement.
///
/// Stores `ChunkData` keyed by (group-by, chunk number) under a byte
/// capacity. Replacement is the weighted CLOCK of ClockMap (DESIGN.md §3)
/// with one ring per victim class of the `ReplacementPolicy`: entries carry
/// the policy's clock value, and the sweep passes over pinned entries and
/// entries the incoming chunk may not replace (two-level policy) without
/// decrementing them. Listeners observe inserts and evictions so the
/// virtual-count strategies can maintain their summary state.
///
/// Entries can be *pinned* while a plan executor reads them, which exempts
/// them from eviction: a fold's inputs stay resident (and keep counting
/// against the budget) until the fold is done.
///
/// Concurrency: the cache is split into `num_shards` shards by hash of the
/// key; every shard has its own mutex, entry map, CLOCK rings and byte
/// budget (capacity/num_shards each), so operations on different shards
/// never contend. All mutating and reading member functions are safe to
/// call from multiple threads. Each entry holds its chunk as an immutable
/// `ChunkRef`. `GetRef` hands out another ref under the shard lock — one
/// refcount bump, no copy — and that ref keeps the cells alive after the
/// entry is replaced, evicted or removed, so it is the read concurrent
/// callers use for whole chunks. `GetPinned` returns a raw pointer kept
/// valid by a pin instead (the executor's fold inputs). The raw-pointer
/// accessor `Peek` remains for single-threaded callers: its pointer dies
/// with the entry. Listeners fire while the affected shard's
/// lock is held (see CacheListener's contract). The default of one shard
/// preserves the exact global eviction order of the serial cache;
/// experiments that care about replacement fidelity use it, concurrent
/// drivers pass 16+.
class ChunkCache {
 public:
  /// Upper bound on any entry's clock value. Policies grant weights in
  /// [1, 32] (ReplacementPolicy::NormalizedWeight); Boost may push a value
  /// above a policy grant but never beyond this bound, which keeps the
  /// eviction sweep budget (64 decrements per resident entry) sufficient.
  static constexpr double kMaxClockValue = 48.0;

  /// `policy` must outlive the cache. `bytes_per_tuple` is the logical
  /// accounting size of one cached tuple (paper: 20 bytes). `num_shards`
  /// splits the capacity into independently locked shards (>= 1).
  ChunkCache(int64_t capacity_bytes, int64_t bytes_per_tuple,
             const ReplacementPolicy* policy, int num_shards = 1);

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  /// Registers a membership observer; must outlive the cache. Not
  /// thread-safe: register all listeners before concurrent use.
  void AddListener(CacheListener* listener);

  /// Installs the demotion sink (warm tier); must outlive the cache. Not
  /// thread-safe: install before concurrent use. Null detaches.
  void set_demotion_sink(DemotionSink* sink) { sink_ = sink; }

  int64_t capacity_bytes() const { return capacity_bytes_; }
  int64_t bytes_per_tuple() const { return bytes_per_tuple_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Bytes / entries across all shards (each shard locked in turn; the sum
  /// is exact only while no writer runs concurrently).
  int64_t bytes_used() const;
  size_t num_entries() const;

  /// Aggregated stats across shards, by value (a reference would dangle
  /// across shard updates).
  CacheStats stats() const;
  void ResetStats();

  /// True if the chunk is cached. Does not touch replacement state and does
  /// not count as a hit or miss.
  bool Contains(const CacheKey& key) const;

  /// Returns the cached chunk without touching replacement state or stats.
  /// Single-threaded use only: the pointer is valid until the entry is
  /// evicted or replaced, which a concurrent writer may do at any time —
  /// concurrent readers use GetRef or GetPinned.
  const ChunkData* Peek(const CacheKey& key) const;

  /// Returns a shared ref to the cached chunk, or null on a miss. Counts a
  /// hit or miss and refreshes the clock value. Safe under any concurrency:
  /// the ref keeps the chunk alive however the entry changes afterwards.
  ChunkRef GetRef(const CacheKey& key);

  /// Returns the cached chunk with its pin count raised (caller must Unpin
  /// when done), or nullptr on a miss. Counts a hit or miss and refreshes
  /// the clock value. The pointer stays valid until the matching Unpin:
  /// pinned entries are never evicted and never replaced in place.
  const ChunkData* GetPinned(const CacheKey& key);

  /// Inserts a chunk with the given benefit and provenance. Returns false
  /// if the chunk could not be admitted (larger than its shard, or the
  /// policy forbids evicting enough victims). Inserting over an existing
  /// key *replaces* the entry's data, benefit and provenance in place and
  /// refreshes its clock value (a re-fetch after invalidation must not
  /// leave stale data cached); listeners see OnUpdate, not OnInsert. If the
  /// existing entry is pinned its data cannot be swapped out from under the
  /// reader — the insert only refreshes the clock value and returns true.
  /// The cache shares `data` with the caller; nothing is copied.
  bool Insert(ChunkRef data, double benefit, ChunkSource source);

  /// Same, for a chunk the caller owns outright.
  bool Insert(ChunkData data, double benefit, ChunkSource source);

  /// Removes a chunk; returns false if it was not cached (hot-tier
  /// residency only). The entry must not be pinned. The demotion sink's
  /// OnErase fires even when the key was not hot-resident, so invalidation
  /// purges warm/disk copies of keys the hot tier already evicted.
  bool Remove(const CacheKey& key);

  /// Adds `amount` to the entry's clock value (the two-level policy boosts
  /// every chunk of a group used to compute an aggregate, Section 6.3),
  /// saturating at kMaxClockValue so a heavily boosted entry cannot outlast
  /// the eviction sweep budget. No-op if the key is not cached.
  void Boost(const CacheKey& key, double amount);

  /// Pins an entry against eviction (counted; must be balanced by Unpin).
  void Pin(const CacheKey& key);
  void Unpin(const CacheKey& key);

  /// Calls `fn` for every entry, in unspecified order. The entry infos are
  /// snapshotted shard by shard first and `fn` runs without any lock held,
  /// so the callback may call back into the cache (Peek, GetRef, ...).
  void ForEach(const std::function<void(const CacheEntryInfo&)>& fn) const;

  /// Exhaustive structural self-check: per shard, ClockMap::Validate (ring
  /// and byte ledgers, hands, capacity) plus each entry's key, size, pin
  /// count and policy class. Returns true when all invariants hold.
  /// Intended for tests (quiesced cache); takes each shard lock in turn.
  bool ValidateInvariants() const;

  /// Sum of pin counts across all entries (each shard locked in turn).
  /// Exact only on a quiesced cache; a storm test asserting "no leaked
  /// pins" checks this is zero once every query has resolved.
  int64_t TotalPinCount() const;

 private:
  /// A shard's payload per key; ClockMap holds its clock value, class and
  /// bytes (equal to `info.bytes`).
  struct Entry {
    ChunkRef data;
    CacheEntryInfo info;
    int32_t pin_count = 0;
  };

  /// A capacity-eviction victim collected under the shard lock, to be
  /// offered to the demotion sink after the lock is released.
  struct Demoted {
    CacheEntryInfo info;
    ChunkRef data;
  };

  /// One lock domain: the entries, CLOCK rings and byte budget
  /// (capacity/num_shards) for the keys that hash here.
  struct Shard {
    Shard(int64_t capacity, int num_classes)
        : entries(capacity, num_classes) {}
    mutable Mutex mutex{LockRank::kCacheShard, "chunk_cache.shard"};
    ClockMap<CacheKey, Entry, CacheKeyHash> entries AAC_GUARDED_BY(mutex);
    CacheStats stats AAC_GUARDED_BY(mutex);
  };

  Shard& ShardFor(const CacheKey& key) {
    return *shards_[CacheKeyHash()(key) % shards_.size()];
  }
  const Shard& ShardFor(const CacheKey& key) const {
    return *shards_[CacheKeyHash()(key) % shards_.size()];
  }

  /// The locked body of Insert. Victims evicted to make room are moved
  /// into `*demoted` (when a sink is installed); `*erase_sink` is set when
  /// the caller must fire OnErase(key) after unlocking.
  bool InsertLocked(Shard& shard, const CacheKey& key,
                    const CacheEntryInfo& info, ChunkRef&& data,
                    int64_t tuples, std::vector<Demoted>* demoted,
                    bool* erase_sink) AAC_REQUIRES(shard.mutex);

  /// Sweeps `shard` until `bytes` more fit; returns true on success.
  /// Pinned entries and entries `incoming` may not replace are passed
  /// over; victims go through EvictEntry into `*demoted`.
  bool MakeRoom(Shard& shard, const CacheEntryInfo& incoming, int64_t bytes,
                std::vector<Demoted>* demoted) AAC_REQUIRES(shard.mutex);

  /// Accounts for an entry that has left `shard`'s store (its bytes left
  /// the hot budget in the same critical section): counts the eviction and
  /// tells the listeners. With a sink installed and `demoted` non-null the
  /// entry's ref moves into `*demoted` for a post-unlock OnDemote. Null
  /// `demoted` = explicit removal.
  void EvictEntry(Shard& shard, const CacheKey& key, Entry&& entry,
                  std::vector<Demoted>* demoted) AAC_REQUIRES(shard.mutex);

  int64_t capacity_bytes_;
  int64_t bytes_per_tuple_;
  const ReplacementPolicy* policy_;
  DemotionSink* sink_ = nullptr;
  std::vector<CacheListener*> listeners_;
  // unique_ptr: Shard holds a mutex and must never move.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace aac

#endif  // AAC_CACHE_CHUNK_CACHE_H_
