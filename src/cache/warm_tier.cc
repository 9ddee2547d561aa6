#include "cache/warm_tier.h"

#include <algorithm>
#include <utility>

#include "cache/replacement.h"
#include "storage/chunk_codec.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace aac {
namespace {

/// Follower re-check cadence: short enough that a cancelled token is
/// noticed promptly, long enough to not thrash the mutex.
constexpr int64_t kFlightWaitSliceNanos = 2 * 1000 * 1000;

}  // namespace

WarmTier::WarmTier(Config config)
    : config_(std::move(config)), entries_(config_.capacity_bytes) {
  AAC_CHECK_GT(config_.num_dims, 0);
}

WarmTier::~WarmTier() = default;

void WarmTier::OnDemote(const CacheEntryInfo& info, ChunkData&& data) {
  const bool gated =
      info.bytes <= 0 ||
      (config_.min_benefit_per_byte > 0.0 &&
       info.benefit <
           config_.min_benefit_per_byte * static_cast<double>(info.bytes));
  if (gated) {
    MutexLock lock(mutex_);
    ++stats_.offers;
    ++stats_.gate_rejected;
    return;
  }

  // Encode off the mutex — compression must never stall probes.
  Stopwatch encode_timer;
  auto blob = std::make_shared<std::vector<uint8_t>>();
  EncodeChunk(config_.num_dims, data, blob.get());
  const int64_t encode_ns = encode_timer.ElapsedNanos();
  const int64_t encoded = static_cast<int64_t>(blob->size());

  std::vector<Entry> spilled;
  {
    MutexLock lock(mutex_);
    ++stats_.offers;
    stats_.encode_ns += encode_ns;
    if (encoded > config_.capacity_bytes) {
      ++stats_.capacity_rejected;
      return;
    }
    // Re-demotion over a stale resident copy replaces it.
    auto existing = entries_.find(info.key);
    if (existing != entries_.end()) entries_.Erase(existing);
    // CLOCK victims are offered to the disk tier after unlocking.
    const bool fits = entries_.MakeRoom(
        encoded, [&](const CacheKey& /*key*/, Entry&& victim) {
          mutex_.AssertHeld();
          ++stats_.evictions;
          spilled.push_back(std::move(victim));
        });
    if (!fits) {
      ++stats_.capacity_rejected;
    } else {
      entries_.Insert(info.key, Entry{std::move(blob), info}, encoded,
                      ReplacementPolicy::NormalizedWeight(info.benefit));
      ++stats_.admits;
      stats_.demoted_raw_bytes += info.bytes;
      stats_.demoted_encoded_bytes += encoded;
    }
  }

  // Offer this round's CLOCK victims to the disk tier, outside the mutex
  // (disk I/O under the warm lock would stall every probe).
  if (config_.disk != nullptr && !spilled.empty()) {
    int64_t spills = 0;
    for (const Entry& victim : spilled) {
      if (config_.disk->Admit(victim.info, *victim.blob)) ++spills;
    }
    if (spills > 0) {
      MutexLock lock(mutex_);
      stats_.spills += spills;
    }
  }
}

void WarmTier::OnErase(const CacheKey& key) {
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      entries_.Erase(it);
      ++stats_.erased;
    }
  }
  if (config_.disk != nullptr) config_.disk->Erase(key);
}

bool WarmTier::Probe(const CacheKey& key, const ExecContext* ctx,
                     WarmProbeResult* out) {
  AAC_CHECK(out != nullptr);
  if (ctx != nullptr && ctx->ShouldAbort()) {
    MutexLock lock(mutex_);
    ++stats_.misses;
    return false;
  }

  std::shared_ptr<Flight> flight;
  bool leader = false;
  std::shared_ptr<const std::vector<uint8_t>> blob;
  CacheEntryInfo info;
  bool from_disk = false;
  {
    MutexLock lock(mutex_);
    auto fit = flights_.find(key);
    if (fit != flights_.end()) {
      flight = fit->second;
      ++flight->waiters;  // registered before the leader can publish
    } else {
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        blob = it->second.value.blob;
        info = it->second.value.info;
        it->second.clock_value =
            ReplacementPolicy::NormalizedWeight(info.benefit);
      } else if (config_.disk != nullptr && config_.disk->Contains(key)) {
        from_disk = true;
      } else {
        ++stats_.misses;
        return false;
      }
      flight = std::make_shared<Flight>();
      flights_.emplace(key, flight);
      leader = true;
    }
  }

  if (!leader) {
    // Follower: wait for the leader's decode, deadline-bounded.
    MutexLock lock(mutex_);
    while (!flight->done) {
      if (ctx != nullptr && ctx->ShouldAbort()) {
        ++stats_.misses;
        return false;
      }
      int64_t wait_ns = kFlightWaitSliceNanos;
      if (ctx != nullptr && ctx->deadline.has_deadline()) {
        wait_ns = std::min(wait_ns, ctx->deadline.remaining_ns());
      }
      flight_cv_.WaitForNanos(mutex_, wait_ns);
    }
    if (!flight->ok) {
      ++stats_.misses;
      return false;
    }
    out->data = flight->data;
    out->info = flight->info;
    out->from_disk = flight->from_disk;
    out->decode_ns = 0;
    ++stats_.coalesced_decodes;
    if (flight->from_disk) {
      ++stats_.disk_hits;
    } else {
      ++stats_.hits;
    }
    return true;
  }

  // Leader: decode off the mutex; followers block on flight_cv_ meanwhile.
  bool ok = false;
  bool decode_failed = false;
  ChunkData data;
  int64_t decode_ns = 0;
  if (ctx == nullptr || !ctx->ShouldAbort()) {
    if (from_disk) {
      std::vector<uint8_t> disk_blob;
      CacheEntryInfo disk_info;
      if (config_.disk->Read(key, &disk_blob, &disk_info)) {
        Stopwatch decode_timer;
        ok = DecodeChunk(config_.num_dims, disk_blob.data(), disk_blob.size(),
                         &data);
        decode_ns = decode_timer.ElapsedNanos();
        if (ok) {
          info = disk_info;
        } else {
          decode_failed = true;
          config_.disk->Erase(key);
        }
      }
    } else {
      Stopwatch decode_timer;
      ok = DecodeChunk(config_.num_dims, blob->data(), blob->size(), &data);
      decode_ns = decode_timer.ElapsedNanos();
      decode_failed = !ok;
    }
  }

  {
    MutexLock lock(mutex_);
    stats_.decode_ns += decode_ns;
    if (ok) {
      if (flight->waiters > 0) flight->data = data;  // copy for followers
      flight->info = info;
      flight->from_disk = from_disk;
      flight->ok = true;
      if (from_disk) {
        ++stats_.disk_hits;
      } else {
        ++stats_.hits;
      }
    } else {
      ++stats_.misses;
      if (decode_failed) {
        ++stats_.decode_failures;
        if (!from_disk) {
          // Drop the corrupt resident blob so it is never probed again.
          auto it = entries_.find(key);
          if (it != entries_.end() && it->second.value.blob == blob) {
            entries_.Erase(it);
          }
        }
      }
    }
    flight->done = true;
    flights_.erase(key);
    flight_cv_.NotifyAll();
  }
  if (!ok) return false;
  out->data = std::move(data);
  out->info = info;
  out->from_disk = from_disk;
  out->decode_ns = decode_ns;
  return true;
}

bool WarmTier::Contains(const CacheKey& key) const {
  MutexLock lock(mutex_);
  if (entries_.contains(key)) return true;
  return config_.disk != nullptr && config_.disk->Contains(key);
}

WarmTierStats WarmTier::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void WarmTier::ResetStats() {
  MutexLock lock(mutex_);
  stats_ = WarmTierStats();
}

int64_t WarmTier::bytes_used() const {
  MutexLock lock(mutex_);
  return entries_.bytes();
}

size_t WarmTier::num_entries() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

bool WarmTier::ValidateInvariants() const {
  MutexLock lock(mutex_);
  return flights_.empty() &&
         entries_.Validate([](const CacheKey& key, const auto& slot) {
           const Entry& entry = slot.value;
           return entry.blob != nullptr && key == entry.info.key &&
                  slot.bytes == static_cast<int64_t>(entry.blob->size());
         });
}

}  // namespace aac
