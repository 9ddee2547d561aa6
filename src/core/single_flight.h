#ifndef AAC_CORE_SINGLE_FLIGHT_H_
#define AAC_CORE_SINGLE_FLIGHT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "cache/cache_entry.h"
#include "storage/chunk_data.h"
#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Coalesces concurrent backend fetches of the same chunk (the request
/// dedup used by inference servers): the first thread to ask for a chunk
/// becomes its *leader* and performs the real backend fetch; threads that
/// ask while the fetch is in flight become *followers* and block until the
/// leader publishes the result, so a thundering herd of cache misses for
/// one chunk issues exactly one backend call.
///
/// Protocol (see QueryEngine's backend phase):
///   1. `JoinOrLead(key)` — nullptr means the caller leads and MUST later
///      call exactly one of `Publish(key, data)` or `Fail(key)`; otherwise
///      the returned slot is awaited with `Await`.
///   2. The leader fetches, then publishes (or fails) every key it led —
///      *before* awaiting any slot it follows. Publishing-before-waiting
///      makes the wait graph acyclic, so the protocol cannot deadlock: a
///      thread only ever blocks on chunks led by others, and every leader
///      resolves its own chunks without blocking first.
///   3. `Await` returns false when the leader's fetch failed; the follower
///      falls back to its own backend fetch (no re-coalescing for that
///      chunk this round — bounded work instead of convoy retries).
///
/// Publish/Fail remove the in-flight slot, so a later request for the same
/// key starts a fresh flight (normally it finds the chunk in the cache
/// first). Thread-safe; one instance is shared by all engines of a
/// ConcurrentQueryEngine pool.
class SingleFlight {
 public:
  /// One in-flight fetch. Waiters hold a shared_ptr so the slot outlives
  /// its removal from the in-flight map.
  struct Slot {
    Mutex mutex{LockRank::kSingleFlightSlot, "single_flight.slot"};
    CondVar cv;
    bool done AAC_GUARDED_BY(mutex) = false;
    bool ok AAC_GUARDED_BY(mutex) = false;
    ChunkRef data AAC_GUARDED_BY(mutex);
  };

  /// Returns nullptr if the caller became the leader for `key` (and must
  /// later Publish or Fail it), otherwise the slot to Await.
  std::shared_ptr<Slot> JoinOrLead(const CacheKey& key);

  /// Leader: publishes the fetched chunk to all followers of `key`; every
  /// follower receives this same ref.
  void Publish(const CacheKey& key, ChunkRef data);

  /// Leader: wakes all followers of `key` with a failure.
  void Fail(const CacheKey& key);

  /// Follower: blocks until the leader resolves the slot. Returns true and
  /// stores the leader's chunk in `*out` on success (counted in
  /// coalesced()), false on leader failure.
  bool Await(Slot& slot, ChunkRef* out);

  /// How AwaitWithDeadline resolved.
  enum class AwaitStatus {
    kOk,            // leader published; *out holds the chunk
    kLeaderFailed,  // leader's fetch failed; follower may fetch itself
    kDeadline,      // the FOLLOWER's own deadline/cancel fired first — it
                    // detaches and gives up on the chunk; the leader keeps
                    // fetching and still warms the cache for later queries
  };

  /// Follower: Await bounded by the follower's own context. The wait wakes
  /// at least every `ctx.deadline.remaining_ns()` (or on cancel-poll
  /// granularity when only a CancelToken is set), so a follower whose
  /// deadline fires before the leader's fetch lands detaches cleanly
  /// instead of blocking — counted in detached(). Detaching mutates no slot
  /// state: the slot is shared_ptr-owned, and Publish/Fail never care how
  /// many followers are still listening.
  AwaitStatus AwaitWithDeadline(Slot& slot, const ExecContext& ctx,
                                ChunkRef* out);

  /// Fetches answered by another thread's backend call (coalesced waits
  /// that received data).
  int64_t coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }

  /// Follower waits abandoned because the follower's own deadline or
  /// cancel fired before the leader resolved the slot.
  int64_t detached() const {
    return detached_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<Slot> Take(const CacheKey& key) AAC_EXCLUDES(mutex_);

  Mutex mutex_{LockRank::kSingleFlightMap, "single_flight.map"};
  std::unordered_map<CacheKey, std::shared_ptr<Slot>, CacheKeyHash> inflight_
      AAC_GUARDED_BY(mutex_);
  std::atomic<int64_t> coalesced_{0};
  std::atomic<int64_t> detached_{0};
};

}  // namespace aac

#endif  // AAC_CORE_SINGLE_FLIGHT_H_
