#ifndef AAC_CORE_QUERY_H_
#define AAC_CORE_QUERY_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chunks/chunk_grid.h"
#include "schema/level_vector.h"
#include "schema/schema.h"
#include "storage/chunk_data.h"

namespace aac {

/// Aggregate functions answerable from cached chunk state. Every cached
/// cell carries (sum, count, min, max), so all of these — including the
/// algebraic AVG — come from the same cache entries; the function choice
/// only affects value extraction.
enum class AggregateFunction { kSum, kCount, kMin, kMax, kAvg };

const char* AggregateFunctionName(AggregateFunction fn);

/// Extracts one aggregate from a cell's state. AVG of an empty cell is 0.
double CellValue(const Cell& cell, AggregateFunction fn);

/// A multi-dimensional aggregate query: "AGG(measure) at group-by `level`,
/// restricted to a value range on each dimension" — the shape of the
/// paper's APB-1 workload (sum of UnitSales at different levels of
/// aggregation, over selection predicates).
struct Query {
  LevelVector level;
  /// Per dimension, the half-open value-id range [lo, hi) at `level`.
  std::array<std::pair<int32_t, int32_t>, kMaxDims> ranges{};

  /// Which aggregate the client wants extracted (caching is unaffected).
  AggregateFunction fn = AggregateFunction::kSum;

  /// Query covering every value of every dimension at `level`.
  static Query WholeLevel(const Schema& schema, const LevelVector& level);

  /// "(1,0) p=[0,4) t=[2,3)" rendering for logs.
  std::string ToString(const Schema& schema) const;

  /// Queries are equal iff they denote the same request: same level vector,
  /// same aggregate function, same range per *live* dimension. Range slots
  /// at and beyond level.size() are dead storage and deliberately ignored —
  /// comparing them would make equality sensitive to how the struct was
  /// built (and to garbage in unused slots) rather than to what the query
  /// asks. Slice/predicate order cannot affect equality because `ranges` is
  /// positional; textual orderings are normalized by the parser.
  friend bool operator==(const Query& a, const Query& b) {
    if (a.level != b.level || a.fn != b.fn) return false;
    for (int d = 0; d < a.level.size(); ++d) {
      if (a.ranges[static_cast<size_t>(d)] != b.ranges[static_cast<size_t>(d)])
        return false;
    }
    return true;
  }
  friend bool operator!=(const Query& a, const Query& b) { return !(a == b); }
};

/// Hash consistent with Query::operator== (same live-slot discipline).
struct QueryHash {
  size_t operator()(const Query& q) const {
    size_t h = q.level.Hash() * 31u + static_cast<size_t>(q.fn);
    for (int d = 0; d < q.level.size(); ++d) {
      h = h * 1000003u +
          static_cast<size_t>(
              static_cast<uint32_t>(q.ranges[static_cast<size_t>(d)].first));
      h = h * 1000003u +
          static_cast<size_t>(
              static_cast<uint32_t>(q.ranges[static_cast<size_t>(d)].second));
    }
    return h;
  }
};

/// The chunks of the query's group-by that overlap its ranges — the unit of
/// cache lookup (queries are answered at chunk granularity, possibly a
/// superset of the exact range, as in chunk-based caching).
std::vector<ChunkId> ChunksForQuery(const ChunkGrid& grid, const Query& query);

/// Number of chunks ChunksForQuery would return.
int64_t NumChunksForQuery(const ChunkGrid& grid, const Query& query);

/// One (coordinates, value) row of a refined query answer.
struct ResultRow {
  std::array<int32_t, kMaxDims> values{};
  double value = 0.0;
};

/// Refines chunk-aligned engine output to the query's exact value ranges
/// and extracts `query.fn` per cell: the last mile between the chunk cache
/// and what the client asked for. Rows come back in unspecified order.
std::vector<ResultRow> RefineResult(const Schema& schema, const Query& query,
                                    const std::vector<ChunkData>& chunks);

/// Same, over shared chunks (a QueryResult's answer).
std::vector<ResultRow> RefineResult(const Schema& schema, const Query& query,
                                    const std::vector<ChunkRef>& chunks);

}  // namespace aac

#endif  // AAC_CORE_QUERY_H_
