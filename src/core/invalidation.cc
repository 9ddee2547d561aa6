#include "core/invalidation.h"

#include <algorithm>

#include "util/check.h"

namespace aac {

CacheInvalidator::CacheInvalidator(const ChunkGrid* grid, ChunkCache* cache,
                                   ResultCache* results)
    : grid_(grid), cache_(cache), results_(results) {
  AAC_CHECK(grid != nullptr);
  AAC_CHECK(cache != nullptr);
}

int64_t CacheInvalidator::InvalidateForBaseChunks(
    std::span<const ChunkId> base_chunks) {
  const Lattice& lattice = grid_->lattice();
  const GroupById base = lattice.base_id();
  int64_t dropped = 0;
  // Base chunks that share a chunk at a coarser group-by map to the same
  // key there; remove each key once.
  std::vector<ChunkId> affected;
  affected.reserve(base_chunks.size());
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    affected.clear();
    for (ChunkId base_chunk : base_chunks) {
      affected.push_back(grid_->ChildChunkNumber(base, base_chunk, gb));
    }
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    for (ChunkId chunk : affected) {
      if (cache_->Remove({gb, chunk})) ++dropped;
    }
  }
  if (results_ != nullptr) {
    dropped += results_->InvalidateForBaseChunks(*grid_, base_chunks);
  }
  return dropped;
}

int64_t ApplyFactUpdates(FactTable* table, ChunkCache* cache,
                         std::vector<Cell> new_tuples, ResultCache* results) {
  AAC_CHECK(table != nullptr);
  AAC_CHECK(cache != nullptr);
  const std::vector<ChunkId> affected =
      table->ApplyInserts(std::move(new_tuples));
  CacheInvalidator invalidator(&table->grid(), cache, results);
  return invalidator.InvalidateForBaseChunks(affected);
}

}  // namespace aac
