#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "workload/experiment.h"
#include "workload/workload_runner.h"
#include "test_util.h"

namespace aac {
namespace {

// The full engine configuration matrix: every lookup strategy x replacement
// policy x engine-feature combination answers the same APB stream
// correctly. This is the top-level compatibility guarantee — any config a
// user can assemble from the public enums must agree with the backend
// ground truth.
using MatrixParam = std::tuple<StrategyKind, PolicyKind, bool /*bypass*/,
                               bool /*boost*/>;

class EngineMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(EngineMatrixTest, AnswersMatchGroundTruth) {
  const auto [strategy, policy, bypass, boost] = GetParam();
  ExperimentConfig config;
  config.data.num_tuples = 10'000;
  config.data.dense_dim = 2;
  config.cache_fraction = 0.5;
  config.strategy = strategy;
  config.policy = policy;
  config.engine.cost_based_bypass = bypass;
  // Slow enough that the backend wins every computable chunk of this
  // stream: at 2000 ns/tuple no chunk was bypassed in any configuration.
  config.engine.cache_aggregation_ns_per_tuple = 100'000;
  config.engine.boost_groups = boost;
  config.preload = policy == PolicyKind::kTwoLevel;
  Experiment exp(config);
  BackendServer oracle(&exp.table(), BackendCostModel(), nullptr);

  QueryStreamConfig stream_config;
  stream_config.num_queries = 12;
  stream_config.seed = 31;
  QueryStreamGenerator gen(&exp.schema(), stream_config);
  int64_t bypassed = 0;
  for (const QueryStreamEntry& entry : gen.Generate()) {
    // The plan EXPLAIN renders is the route execution takes.
    const GroupById gb = exp.lattice().IdOf(entry.query.level);
    const std::vector<ChunkId> chunks = ChunksForQuery(exp.grid(), entry.query);
    const QueryPlan plan = exp.engine().Plan(gb, chunks);
    QueryStats stats;
    std::vector<ChunkData> got =
        CopyChunks(exp.engine().ExecuteQuery(entry.query, &stats).chunks);
    EXPECT_EQ(plan.Count(ChunkRoute::kDirect), stats.chunks_direct);
    EXPECT_EQ(plan.Count(ChunkRoute::kAggregate), stats.chunks_aggregated);
    EXPECT_EQ(plan.Count(ChunkRoute::kBypassed), stats.chunks_bypassed);
    bypassed += stats.chunks_bypassed;
    EXPECT_EQ(plan.Count(ChunkRoute::kMissing) +
                  plan.Count(ChunkRoute::kBypassed),
              stats.chunks_backend);
    std::vector<ChunkData> want = oracle.ExecuteChunkQuery(gb, chunks).chunks;
    ASSERT_EQ(got.size(), want.size());
    auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
      return a.chunk < b.chunk;
    };
    std::sort(got.begin(), got.end(), by_chunk);
    std::sort(want.begin(), want.end(), by_chunk);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(
          ChunkDataEquals(exp.schema().num_dims(), &got[i], &want[i]))
          << StrategyKindName(strategy) << "/" << PolicyKindName(policy)
          << " bypass=" << bypass << " boost=" << boost;
    }
  }
  // The bypass dimension must really bypass: every strategy that plans
  // aggregations (all but NoAgg, 24 of the 30 bypass-on configurations)
  // routes some computable chunk to the backend.
  if (bypass && strategy != StrategyKind::kNoAgg) {
    EXPECT_GT(bypassed, 0) << StrategyKindName(strategy) << "/"
                           << PolicyKindName(policy) << " boost=" << boost;
  }
  if (!bypass) {
    EXPECT_EQ(bypassed, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineMatrixTest,
    ::testing::Combine(
        ::testing::Values(StrategyKind::kNoAgg, StrategyKind::kEsm,
                          StrategyKind::kVcm, StrategyKind::kVcmc,
                          StrategyKind::kMemoEsmc),
        ::testing::Values(PolicyKind::kBenefit, PolicyKind::kTwoLevel,
                          PolicyKind::kLru),
        ::testing::Bool(), ::testing::Bool()),
    [](const auto& param_info) {
      std::string name = StrategyKindName(std::get<0>(param_info.param));
      name += "_";
      name += PolicyKindName(std::get<1>(param_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      name += std::get<2>(param_info.param) ? "_bypass" : "_nobypass";
      name += std::get<3>(param_info.param) ? "_boost" : "_noboost";
      return name;
    });

// The scaled-up cube (leaf cardinalities x2, 8x the base chunks) behaves
// identically — hierarchy-aligned layouts must hold at every scale.
TEST(EngineScale, ScaleTwoCubeAnswersCorrectly) {
  ExperimentConfig config;
  config.apb.scale = 2;
  config.data.num_tuples = 20'000;
  config.cache_fraction = 0.6;
  config.preload = true;
  Experiment exp(config);
  EXPECT_EQ(exp.grid().NumChunks(exp.lattice().base_id()), 8 * 2048);
  BackendServer oracle(&exp.table(), BackendCostModel(), nullptr);
  QueryStreamConfig stream_config;
  stream_config.num_queries = 8;
  QueryStreamGenerator gen(&exp.schema(), stream_config);
  for (const QueryStreamEntry& entry : gen.Generate()) {
    std::vector<ChunkData> got =
        CopyChunks(exp.engine().ExecuteQuery(entry.query, nullptr).chunks);
    const GroupById gb = exp.lattice().IdOf(entry.query.level);
    std::vector<ChunkData> want = oracle.ExecuteChunkQuery(
        gb, ChunksForQuery(exp.grid(), entry.query)).chunks;
    ASSERT_EQ(got.size(), want.size());
    auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
      return a.chunk < b.chunk;
    };
    std::sort(got.begin(), got.end(), by_chunk);
    std::sort(want.begin(), want.end(), by_chunk);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(
          ChunkDataEquals(exp.schema().num_dims(), &got[i], &want[i]));
    }
  }
}

}  // namespace
}  // namespace aac
