#include "cache/disk_tier.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "cache/replacement.h"
#include "util/check.h"

namespace aac {
namespace {

constexpr uint32_t kExtentMagic = 0x53434141;  // "AACS" little-endian

// FNV-1a (chunk_file's checksum constants).
constexpr uint64_t kFnvSeed = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(const uint8_t* data, size_t size) {
  uint64_t h = kFnvSeed;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Fixed-size extent header. Written verbatim (packed, little-endian on
/// every platform this repo targets); `header_fnv` covers every prior
/// field so a torn header is detected before any length is trusted.
struct ExtentHeader {
  uint32_t magic = kExtentMagic;
  uint32_t pad0 = 0;  // explicit padding: every byte written is initialized
  int64_t gb = 0;
  int64_t chunk = 0;
  int64_t logical_bytes = 0;  // CacheEntryInfo::bytes (raw accounting)
  double benefit = 0.0;
  uint8_t source = 0;
  uint8_t pad1[3] = {0, 0, 0};
  uint32_t blob_len = 0;
  uint64_t blob_fnv = 0;
  uint64_t header_fnv = 0;
};
static_assert(sizeof(ExtentHeader) == 64, "extent header must have no "
              "implicit padding (every written byte is initialized)");

constexpr size_t kHeaderFnvCovered =
    sizeof(ExtentHeader) - sizeof(uint64_t);

int64_t ExtentBytes(size_t blob_size) {
  return static_cast<int64_t>(sizeof(ExtentHeader) + blob_size);
}

}  // namespace

DiskTier::DiskTier(Config config)
    : config_(std::move(config)), entries_(config_.capacity_bytes) {
  AAC_CHECK(!config_.path.empty());
}

DiskTier::~DiskTier() {
  MutexLock lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
}

bool DiskTier::Open() {
  MutexLock lock(mutex_);
  AAC_CHECK(file_ == nullptr);
  file_ = std::fopen(config_.path.c_str(), "wb+");
  return file_ != nullptr;
}

bool DiskTier::Admit(const CacheEntryInfo& info,
                     const std::vector<uint8_t>& blob) {
  const int64_t extent = ExtentBytes(blob.size());
  MutexLock lock(mutex_);
  AAC_CHECK(file_ != nullptr);
  if (extent > config_.capacity_bytes) {
    ++stats_.rejected;
    return false;
  }
  // Replacing an existing extent: the old one simply goes dead.
  auto existing = entries_.find(info.key);
  if (existing != entries_.end()) {
    entries_.Erase(existing);
    MaybeCompact();
  }
  // Eviction only drops index entries; their extents go dead.
  const bool fits = entries_.MakeRoom(extent, [&](const CacheKey& /*key*/,
                                                  Entry&& /*victim*/) {
    mutex_.AssertHeld();
    ++stats_.evictions;
    MaybeCompact();
  });
  if (!fits) {
    ++stats_.rejected;
    return false;
  }

  ExtentHeader header;
  header.gb = static_cast<int64_t>(info.key.gb);
  header.chunk = static_cast<int64_t>(info.key.chunk);
  header.logical_bytes = info.bytes;
  header.benefit = info.benefit;
  header.source = static_cast<uint8_t>(info.source);
  header.blob_len = static_cast<uint32_t>(blob.size());
  header.blob_fnv = Fnv1a(blob.data(), blob.size());
  header.header_fnv =
      Fnv1a(reinterpret_cast<const uint8_t*>(&header), kHeaderFnvCovered);

  const int64_t offset = file_bytes_;
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fwrite(&header, sizeof(header), 1, file_) != 1 ||
      (!blob.empty() &&
       std::fwrite(blob.data(), 1, blob.size(), file_) != blob.size()) ||
      std::fflush(file_) != 0) {
    ++stats_.write_failures;
    return false;
  }
  file_bytes_ += extent;
  stats_.bytes_written += extent;

  entries_.Insert(info.key,
                  Entry{info, offset, static_cast<int64_t>(blob.size())},
                  extent, ReplacementPolicy::NormalizedWeight(info.benefit));
  ++stats_.admits;
  return true;
}

bool DiskTier::Contains(const CacheKey& key) const {
  MutexLock lock(mutex_);
  return entries_.contains(key);
}

bool DiskTier::Read(const CacheKey& key, std::vector<uint8_t>* blob,
                    CacheEntryInfo* info) {
  AAC_CHECK(blob != nullptr);
  AAC_CHECK(info != nullptr);
  MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  AAC_CHECK(file_ != nullptr);
  const Entry& entry = it->second.value;
  ExtentHeader header;
  bool torn =
      std::fseek(file_, static_cast<long>(entry.offset), SEEK_SET) != 0 ||
      std::fread(&header, sizeof(header), 1, file_) != 1;
  if (!torn) {
    // Validate the header against both its own checksum and the index —
    // a rebased or overwritten extent must not masquerade as this key.
    torn = header.magic != kExtentMagic ||
           header.header_fnv !=
               Fnv1a(reinterpret_cast<const uint8_t*>(&header),
                     kHeaderFnvCovered) ||
           header.gb != static_cast<int64_t>(key.gb) ||
           header.chunk != static_cast<int64_t>(key.chunk) ||
           static_cast<int64_t>(header.blob_len) != entry.blob_bytes;
  }
  if (!torn) {
    blob->resize(header.blob_len);
    torn = (header.blob_len != 0 &&
            std::fread(blob->data(), 1, blob->size(), file_) !=
                blob->size()) ||
           header.blob_fnv != Fnv1a(blob->data(), blob->size());
  }
  if (torn) {
    // Torn spill extent (crash mid-write, truncated or corrupted file):
    // surface as a miss and forget the extent so we never re-read it.
    ++stats_.torn_reads;
    ++stats_.misses;
    entries_.Erase(it);
    MaybeCompact();
    return false;
  }
  it->second.clock_value =
      ReplacementPolicy::NormalizedWeight(entry.info.benefit);
  *info = entry.info;
  ++stats_.hits;
  return true;
}

void DiskTier::Erase(const CacheKey& key) {
  MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  entries_.Erase(it);
  MaybeCompact();
}

DiskTierStats DiskTier::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void DiskTier::ResetStats() {
  MutexLock lock(mutex_);
  stats_ = DiskTierStats();
}

int64_t DiskTier::bytes_used() const {
  MutexLock lock(mutex_);
  return entries_.bytes();
}

size_t DiskTier::num_entries() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

bool DiskTier::ValidateInvariants() const {
  MutexLock lock(mutex_);
  const int64_t file_bytes = file_bytes_;
  return entries_.Validate([&](const CacheKey& key, const auto& slot) {
    const Entry& entry = slot.value;
    return key == entry.info.key && entry.offset >= 0 &&
           entry.offset + slot.bytes <= file_bytes &&
           slot.bytes == ExtentBytes(static_cast<size_t>(entry.blob_bytes));
  });
}

void DiskTier::MaybeCompact() {
  const int64_t dead = file_bytes_ - entries_.bytes();
  if (file_ == nullptr || dead <= 0 ||
      static_cast<double>(dead) <
          config_.compact_dead_fraction * static_cast<double>(file_bytes_)) {
    return;
  }
  // Pull every live blob into memory (bounded by the live budget, and the
  // payloads are already compressed), then rewrite the file front-to-back
  // and rebase the index. Extents that fail validation are simply dropped
  // — compaction must not propagate a torn extent.
  struct LiveExtent {
    CacheKey key;
    ExtentHeader header;
    std::vector<uint8_t> blob;
  };
  std::vector<LiveExtent> live;
  live.reserve(entries_.size());
  std::vector<CacheKey> drop;
  for (auto& [key, slot] : entries_) {
    const Entry& entry = slot.value;
    LiveExtent ext;
    ext.key = key;
    bool torn =
        std::fseek(file_, static_cast<long>(entry.offset), SEEK_SET) != 0 ||
        std::fread(&ext.header, sizeof(ext.header), 1, file_) != 1 ||
        ext.header.magic != kExtentMagic ||
        static_cast<int64_t>(ext.header.blob_len) != entry.blob_bytes;
    if (!torn) {
      ext.blob.resize(ext.header.blob_len);
      torn = ext.header.blob_len != 0 &&
             std::fread(ext.blob.data(), 1, ext.blob.size(), file_) !=
                 ext.blob.size();
    }
    if (torn) {
      ++stats_.torn_reads;
      drop.push_back(key);
    } else {
      live.push_back(std::move(ext));
    }
  }
  for (const CacheKey& key : drop) entries_.Erase(entries_.find(key));
  std::FILE* fresh = std::freopen(config_.path.c_str(), "wb+", file_);
  if (fresh == nullptr) {
    // The old handle is gone with a failed freopen; without a file every
    // future read is torn-as-miss, which is the degraded-but-correct mode.
    file_ = nullptr;
    ++stats_.write_failures;
    return;
  }
  file_ = fresh;
  file_bytes_ = 0;
  for (LiveExtent& ext : live) {
    auto it = entries_.find(ext.key);
    AAC_CHECK(it != entries_.end());
    if (std::fwrite(&ext.header, sizeof(ext.header), 1, file_) != 1 ||
        (!ext.blob.empty() &&
         std::fwrite(ext.blob.data(), 1, ext.blob.size(), file_) !=
             ext.blob.size())) {
      ++stats_.write_failures;
      entries_.Erase(it);
      continue;
    }
    it->second.value.offset = file_bytes_;
    file_bytes_ += it->second.bytes;
  }
  std::fflush(file_);
  ++stats_.compactions;
}

}  // namespace aac
