#include "core/query.h"

#include "util/check.h"

namespace aac {

const char* AggregateFunctionName(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
    case AggregateFunction::kAvg:
      return "AVG";
  }
  return "?";
}

double CellValue(const Cell& cell, AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kSum:
      return cell.measure;
    case AggregateFunction::kCount:
      return static_cast<double>(cell.count);
    case AggregateFunction::kMin:
      return cell.min;
    case AggregateFunction::kMax:
      return cell.max;
    case AggregateFunction::kAvg:
      return cell.count == 0 ? 0.0
                             : cell.measure / static_cast<double>(cell.count);
  }
  return 0.0;
}

Query Query::WholeLevel(const Schema& schema, const LevelVector& level) {
  AAC_CHECK(schema.IsValidLevel(level));
  Query q;
  q.level = level;
  for (int d = 0; d < schema.num_dims(); ++d) {
    q.ranges[static_cast<size_t>(d)] = {
        0, static_cast<int32_t>(schema.dimension(d).cardinality(level[d]))};
  }
  return q;
}

std::string Query::ToString(const Schema& schema) const {
  std::string s = level.ToString();
  for (int d = 0; d < schema.num_dims(); ++d) {
    s += " ";
    s += schema.dimension(d).name().substr(0, 1);
    s += "=[";
    s += std::to_string(ranges[static_cast<size_t>(d)].first);
    s += ",";
    s += std::to_string(ranges[static_cast<size_t>(d)].second);
    s += ")";
  }
  return s;
}

std::vector<ChunkId> ChunksForQuery(const ChunkGrid& grid, const Query& query) {
  const Schema& schema = grid.schema();
  const GroupById gb = grid.lattice().IdOf(query.level);
  const int nd = schema.num_dims();
  // Per-dimension chunk ranges overlapping the value ranges.
  std::array<std::pair<int32_t, int32_t>, kMaxDims> chunk_ranges;
  for (int d = 0; d < nd; ++d) {
    const auto [lo, hi] = query.ranges[static_cast<size_t>(d)];
    AAC_CHECK(lo >= 0 && lo < hi &&
              hi <= schema.dimension(d).cardinality(query.level[d]));
    chunk_ranges[static_cast<size_t>(d)] = {
        grid.layout(d).ChunkOfValue(query.level[d], lo),
        grid.layout(d).ChunkOfValue(query.level[d], hi - 1) + 1};
  }
  std::vector<ChunkId> out;
  ChunkCoords cur{};
  for (int d = 0; d < nd; ++d) {
    cur[static_cast<size_t>(d)] = chunk_ranges[static_cast<size_t>(d)].first;
  }
  while (true) {
    out.push_back(grid.ChunkIdOf(gb, cur));
    int d = nd - 1;
    while (d >= 0) {
      if (++cur[static_cast<size_t>(d)] <
          chunk_ranges[static_cast<size_t>(d)].second) {
        break;
      }
      cur[static_cast<size_t>(d)] = chunk_ranges[static_cast<size_t>(d)].first;
      --d;
    }
    if (d < 0) break;
  }
  return out;
}

namespace {

// The one row loop behind both RefineResult overloads.
void AppendRefinedRows(int nd, const Query& query, const ChunkData& chunk,
                       std::vector<ResultRow>* rows) {
  for (const Cell& cell : chunk.cells) {
    bool inside = true;
    for (int d = 0; d < nd; ++d) {
      const auto [lo, hi] = query.ranges[static_cast<size_t>(d)];
      const int32_t v = cell.values[static_cast<size_t>(d)];
      if (v < lo || v >= hi) {
        inside = false;
        break;
      }
    }
    if (!inside) continue;
    ResultRow row;
    row.values = cell.values;
    row.value = CellValue(cell, query.fn);
    rows->push_back(row);
  }
}

}  // namespace

std::vector<ResultRow> RefineResult(const Schema& schema, const Query& query,
                                    const std::vector<ChunkData>& chunks) {
  std::vector<ResultRow> rows;
  for (const ChunkData& chunk : chunks) {
    AppendRefinedRows(schema.num_dims(), query, chunk, &rows);
  }
  return rows;
}

std::vector<ResultRow> RefineResult(const Schema& schema, const Query& query,
                                    const std::vector<ChunkRef>& chunks) {
  std::vector<ResultRow> rows;
  for (const ChunkRef& chunk : chunks) {
    AppendRefinedRows(schema.num_dims(), query, *chunk, &rows);
  }
  return rows;
}

int64_t NumChunksForQuery(const ChunkGrid& grid, const Query& query) {
  const Schema& schema = grid.schema();
  int64_t total = 1;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const auto [lo, hi] = query.ranges[static_cast<size_t>(d)];
    const int32_t cb = grid.layout(d).ChunkOfValue(query.level[d], lo);
    const int32_t ce = grid.layout(d).ChunkOfValue(query.level[d], hi - 1) + 1;
    total *= ce - cb;
  }
  return total;
}

}  // namespace aac
