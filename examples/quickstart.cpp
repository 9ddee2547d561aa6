// Quickstart: stand up an aggregate-aware chunk cache over a synthetic
// APB-1-like cube and watch it answer a roll-up query *without* touching the
// backend — the paper's "active cache" in a dozen lines of setup.
//
//   $ ./quickstart

#include <cstdio>

#include "workload/experiment.h"

using namespace aac;

int main() {
  // One-stop setup: schema + lattice + chunked fact table + simulated
  // backend + cache + VCMC lookup strategy + query engine.
  ExperimentConfig config;
  config.data.num_tuples = 50'000;  // synthetic UnitSales facts
  config.cache_fraction = 0.8;      // cache sized at 80% of the base table
  config.strategy = StrategyKind::kVcmc;
  config.policy = PolicyKind::kTwoLevel;
  Experiment exp(config);

  std::printf("cube: %d group-bys, %lld chunks across all levels\n",
              exp.lattice().num_groupbys(),
              static_cast<long long>(exp.grid().TotalChunksAllGroupBys()));
  std::printf("fact table: %lld tuples in %lld base chunks\n\n",
              static_cast<long long>(exp.table().num_tuples()),
              static_cast<long long>(exp.table().num_chunks()));

  // Query 1: monthly unit sales per product class — cold cache, so the
  // middle tier sends one SQL statement to the backend for all chunks.
  Query monthly = Query::WholeLevel(exp.schema(), LevelVector{4, 1, 2, 0, 0});
  QueryStats stats;
  exp.engine().ExecuteQuery(monthly, &stats).chunks;
  std::printf("Q1 class x chain x month  : %lld chunks, %lld from backend "
              "(%.2f ms)\n",
              static_cast<long long>(stats.chunks_requested),
              static_cast<long long>(stats.chunks_backend), stats.TotalMs());

  // Query 2: the same question again — pure cache hit.
  exp.engine().ExecuteQuery(monthly, &stats).chunks;
  std::printf("Q2 same query again       : %lld chunks, %lld direct hits "
              "(%.2f ms)\n",
              static_cast<long long>(stats.chunks_requested),
              static_cast<long long>(stats.chunks_direct), stats.TotalMs());

  // Query 3: roll up months to years. A conventional cache would miss — the
  // result was never queried — but the active cache *aggregates* the cached
  // monthly chunks instead of going back to the database.
  Query yearly = Query::WholeLevel(exp.schema(), LevelVector{4, 1, 0, 0, 0});
  std::vector<ChunkRef> result =
      exp.engine().ExecuteQuery(yearly, &stats).chunks;
  std::printf("Q3 rolled up to years     : %lld chunks, %lld by in-cache "
              "aggregation, %lld from backend (%.2f ms)\n\n",
              static_cast<long long>(stats.chunks_requested),
              static_cast<long long>(stats.chunks_aggregated),
              static_cast<long long>(stats.chunks_backend), stats.TotalMs());

  double total = 0;
  for (const ChunkRef& chunk : result) {
    for (const Cell& cell : chunk->cells) total += cell.measure;
  }
  std::printf("total unit sales across Q3's result: %.0f\n", total);
  std::printf("backend queries issued overall: %lld (the roll-up needed "
              "none)\n",
              static_cast<long long>(exp.backend().stats().queries));
  return 0;
}
