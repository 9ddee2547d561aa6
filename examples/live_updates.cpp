// Live updates: an active cache over a *changing* fact table. New sales
// records arrive between queries; the invalidation protocol drops exactly
// the cached chunks whose base regions changed, so every answer stays
// consistent while the rest of the working set survives.
//
//   $ ./live_updates

#include <cstdio>

#include "core/invalidation.h"
#include "util/rng.h"
#include "workload/experiment.h"

using namespace aac;

namespace {

double TotalAtTop(Experiment& exp) {
  Query top = Query::WholeLevel(exp.schema(), exp.schema().top_level());
  double total = 0;
  for (const ChunkRef& chunk : exp.engine().ExecuteQuery(top, nullptr).chunks) {
    for (const Cell& cell : chunk->cells) total += cell.measure;
  }
  return total;
}

}  // namespace

int main() {
  ExperimentConfig config;
  config.data.num_tuples = 60'000;
  config.cache_fraction = 1.2;
  config.strategy = StrategyKind::kVcmc;
  config.preload = true;  // base table cached: queries never miss
  Experiment exp(config);

  std::printf("initial grand total: %.0f (cache holds %zu chunks)\n",
              TotalAtTop(exp), exp.cache().num_entries());

  Rng rng(7);
  const LevelVector& base = exp.schema().base_level();
  double injected = 0;
  for (int round = 1; round <= 5; ++round) {
    // A batch of new sales records lands in the warehouse.
    std::vector<Cell> batch;
    for (int i = 0; i < 4; ++i) {
      Cell cell;
      for (int d = 0; d < exp.schema().num_dims(); ++d) {
        cell.values[static_cast<size_t>(d)] = static_cast<int32_t>(
            rng.Uniform(exp.schema().dimension(d).cardinality(base[d])));
      }
      const double amount = static_cast<double>(rng.Uniform(500)) + 1.0;
      InitCellAggregates(cell, amount);
      injected += amount;
      batch.push_back(cell);
    }
    const size_t before = exp.cache().num_entries();
    const int64_t dropped =
        ApplyFactUpdates(exp.mutable_table(), &exp.cache(), std::move(batch));
    std::printf(
        "round %d: applied 4 new records; invalidated %lld cached chunks "
        "(%zu -> %zu entries); grand total now %.0f\n",
        round, static_cast<long long>(dropped), before,
        exp.cache().num_entries(), TotalAtTop(exp));
  }

  std::printf("\ninjected %.0f of new measure across 5 rounds; every query "
              "saw a consistent, up-to-date cube.\n",
              injected);
  std::printf("backend queries issued: %lld (initial preload + refetches of "
              "invalidated regions only)\n",
              static_cast<long long>(exp.backend().stats().queries));
  return 0;
}
