#ifndef AAC_CORE_INVALIDATION_H_
#define AAC_CORE_INVALIDATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cache/chunk_cache.h"
#include "cache/result_cache.h"
#include "chunks/chunk_grid.h"
#include "storage/fact_table.h"

namespace aac {

/// Cache-coherence for a changing fact table (an extension beyond the
/// paper, which assumed static data).
///
/// When base chunks change, every cached chunk — at any group-by level —
/// whose base region covers one of them is stale and must leave the cache.
/// The closure property makes the affected set cheap to compute: an updated
/// base chunk maps to exactly one chunk per group-by (GetChildChunkNumber),
/// so invalidation costs O(changed base chunks x lattice nodes) regardless
/// of data size. Base chunks that share a coarser chunk share its key, so
/// each affected key is removed once. Count/cost maintenance (VCM/VCMC)
/// rides along through the cache's eviction listeners.
class CacheInvalidator {
 public:
  /// `grid` and `cache` must outlive the invalidator. `results` (optional,
  /// may be null) is the semantic result cache riding above the chunk
  /// cache: base writes must also drop every stored query answer derived
  /// from a changed base chunk. This is an explicit call rather than a
  /// cache-listener ride-along because from the listener's vantage an
  /// invalidation Remove is indistinguishable from a capacity eviction —
  /// and capacity evictions must NOT drop results (see DESIGN.md §12).
  CacheInvalidator(const ChunkGrid* grid, ChunkCache* cache,
                   ResultCache* results = nullptr);

  /// Removes every cached chunk — and every cached query answer, when a
  /// result cache is attached — derived from any of `base_chunks`.
  /// Returns the total number of entries dropped across both layers.
  int64_t InvalidateForBaseChunks(std::span<const ChunkId> base_chunks);

 private:
  const ChunkGrid* grid_;
  ChunkCache* cache_;
  ResultCache* results_;
};

/// Applies a batch of new fact tuples to `table` and invalidates the
/// affected cached chunks (and cached query answers, when `results` is
/// non-null): the full middle-tier update protocol. Returns the number of
/// entries dropped across both cache layers.
int64_t ApplyFactUpdates(FactTable* table, ChunkCache* cache,
                         std::vector<Cell> new_tuples,
                         ResultCache* results = nullptr);

}  // namespace aac

#endif  // AAC_CORE_INVALIDATION_H_
