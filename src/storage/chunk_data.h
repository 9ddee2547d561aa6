#ifndef AAC_STORAGE_CHUNK_DATA_H_
#define AAC_STORAGE_CHUNK_DATA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "chunks/chunk_grid.h"
#include "storage/tuple.h"

namespace aac {

/// The materialized contents of one chunk: the non-empty cells of a group-by
/// that fall inside the chunk's value ranges. This is the unit the cache
/// stores and the aggregator consumes/produces.
struct ChunkData {
  GroupById gb = -1;
  ChunkId chunk = -1;
  std::vector<Cell> cells;

  int64_t tuple_count() const { return static_cast<int64_t>(cells.size()); }

  /// Logical size used for cache-capacity accounting. Matches the paper's
  /// 20-byte fact tuples by default (configured via the size model, not
  /// in-memory sizeof, so experiments are comparable to the paper's MB
  /// figures).
  int64_t LogicalBytes(int64_t bytes_per_tuple) const {
    return tuple_count() * bytes_per_tuple;
  }
};

/// A chunk shared read-only between the cache tiers and query answers.
/// Once wrapped, a ChunkData is never mutated: every holder (a hot-cache
/// entry, a result-cache entry, a single-flight slot, a QueryResult) reads
/// the same cells, and the last holder to drop its ref frees them. Callers
/// that need a mutable chunk copy `*ref`.
using ChunkRef = std::shared_ptr<const ChunkData>;

/// Sorts cells by value ids and merges cells with duplicate coordinates
/// (cell-wise aggregate merge), so a canonical chunk has exactly one cell
/// per coordinate in a deterministic order.
void CanonicalizeChunkData(int num_dims, ChunkData* data);

/// True if both chunks hold the same cells with measures equal within
/// `epsilon`. Both inputs are canonicalized by the call.
bool ChunkDataEquals(int num_dims, ChunkData* a, ChunkData* b,
                     double epsilon = 1e-6);

}  // namespace aac

#endif  // AAC_STORAGE_CHUNK_DATA_H_
