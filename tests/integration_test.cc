#include <gtest/gtest.h>

#include <algorithm>

#include "workload/experiment.h"
#include "workload/workload_runner.h"
#include "test_util.h"

namespace aac {
namespace {

// End-to-end: the full APB-1-like stack answers a mixed OLAP session
// correctly under every strategy, with eviction pressure and preloading.
class IntegrationTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(IntegrationTest, ApbStreamAnswersMatchGroundTruth) {
  ExperimentConfig config;
  config.data.num_tuples = 15'000;
  config.cache_fraction = 0.4;  // force eviction churn
  config.strategy = GetParam();
  config.policy = PolicyKind::kTwoLevel;
  config.engine.boost_groups = true;
  config.preload = true;
  Experiment exp(config);

  BackendServer ground_truth(&exp.table(), BackendCostModel(), nullptr);

  QueryStreamConfig stream_config;
  stream_config.num_queries = 30;
  stream_config.seed = 17;
  QueryStreamGenerator gen(&exp.schema(), stream_config);
  for (const QueryStreamEntry& entry : gen.Generate()) {
    std::vector<ChunkData> got =
        CopyChunks(exp.engine().ExecuteQuery(entry.query, nullptr).chunks);
    const GroupById gb = exp.lattice().IdOf(entry.query.level);
    std::vector<ChunkData> want = ground_truth.ExecuteChunkQuery(
        gb, ChunksForQuery(exp.grid(), entry.query)).chunks;
    ASSERT_EQ(got.size(), want.size());
    auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
      return a.chunk < b.chunk;
    };
    std::sort(got.begin(), got.end(), by_chunk);
    std::sort(want.begin(), want.end(), by_chunk);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].chunk, want[i].chunk);
      ASSERT_TRUE(ChunkDataEquals(exp.schema().num_dims(), &got[i], &want[i]))
          << StrategyKindName(GetParam()) << " query "
          << entry.query.ToString(exp.schema());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, IntegrationTest,
                         ::testing::Values(StrategyKind::kNoAgg,
                                           StrategyKind::kEsm,
                                           StrategyKind::kVcm,
                                           StrategyKind::kVcmc,
                                           StrategyKind::kMemoEsmc),
                         [](const auto& param_info) {
                           return StrategyKindName(param_info.param);
                         });

TEST(Integration, SimulatedBackendTimeDominatesColdRuns) {
  // Sanity for the latency substitution: a cold stream spends most of its
  // time in (simulated) backend latency, as the paper's middle tier did.
  ExperimentConfig config;
  config.data.num_tuples = 15'000;
  config.preload = false;
  Experiment exp(config);
  QueryStreamGenerator gen(&exp.schema(), QueryStreamConfig());
  WorkloadTotals totals = RunWorkload(exp.engine(), gen.Generate(20));
  EXPECT_GT(totals.backend_ms, totals.lookup_ms);
}

}  // namespace
}  // namespace aac
