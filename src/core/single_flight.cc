#include "core/single_flight.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace aac {

std::shared_ptr<SingleFlight::Slot> SingleFlight::JoinOrLead(
    const CacheKey& key) {
  MutexLock lock(mutex_);
  auto it = inflight_.find(key);
  if (it != inflight_.end()) return it->second;
  inflight_.emplace(key, std::make_shared<Slot>());
  return nullptr;  // caller leads
}

std::shared_ptr<SingleFlight::Slot> SingleFlight::Take(const CacheKey& key) {
  MutexLock lock(mutex_);
  auto it = inflight_.find(key);
  AAC_CHECK(it != inflight_.end());  // Publish/Fail without JoinOrLead
  std::shared_ptr<Slot> slot = std::move(it->second);
  inflight_.erase(it);
  return slot;
}

void SingleFlight::Publish(const CacheKey& key, ChunkRef data) {
  std::shared_ptr<Slot> slot = Take(key);
  {
    MutexLock lock(slot->mutex);
    slot->data = std::move(data);
    slot->ok = true;
    slot->done = true;
  }
  slot->cv.NotifyAll();
}

void SingleFlight::Fail(const CacheKey& key) {
  std::shared_ptr<Slot> slot = Take(key);
  {
    MutexLock lock(slot->mutex);
    slot->ok = false;
    slot->done = true;
  }
  slot->cv.NotifyAll();
}

bool SingleFlight::Await(Slot& slot, ChunkRef* out) {
  MutexLock lock(slot.mutex);
  while (!slot.done) slot.cv.Wait(slot.mutex);
  if (!slot.ok) return false;
  *out = slot.data;
  coalesced_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

SingleFlight::AwaitStatus SingleFlight::AwaitWithDeadline(
    Slot& slot, const ExecContext& ctx, ChunkRef* out) {
  // Cancel tokens have no wakeup channel of their own, so a token-only
  // context polls at this granularity. Deadline-bearing contexts wake
  // exactly at expiry (or earlier, on publish).
  constexpr int64_t kCancelPollNanos = 2'000'000;
  MutexLock lock(slot.mutex);
  while (!slot.done) {
    if (ctx.ShouldAbort()) {
      detached_.fetch_add(1, std::memory_order_relaxed);
      return AwaitStatus::kDeadline;
    }
    if (!ctx.deadline.has_deadline() && ctx.cancel == nullptr) {
      slot.cv.Wait(slot.mutex);
      continue;
    }
    // Bounded slices: remaining_ns() is effectively infinite without a
    // deadline, and wait_for on a huge duration overflows the clock.
    int64_t wait_ns =
        std::min(ctx.deadline.remaining_ns(), int64_t{1'000'000'000});
    if (ctx.cancel != nullptr) wait_ns = std::min(wait_ns, kCancelPollNanos);
    slot.cv.WaitForNanos(slot.mutex, wait_ns);
  }
  if (!slot.ok) return AwaitStatus::kLeaderFailed;
  *out = slot.data;
  coalesced_.fetch_add(1, std::memory_order_relaxed);
  return AwaitStatus::kOk;
}

}  // namespace aac
