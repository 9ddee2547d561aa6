#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cache/result_cache.h"
#include "core/no_aggregation.h"
#include "core/query_engine.h"
#include "core/vcmc.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(MakeSmallCube(), kBigCache); }

  void Reset(TestCube cube, int64_t capacity, QueryEngine::Config config = {}) {
    env_ = MakeTestEnv(std::move(cube), 0.7, 41, capacity,
                       /*two_level_policy=*/true);
    strategy_ = std::make_unique<VcmcStrategy>(
        env_.cube.grid.get(), env_.cache.get(), env_.size_model.get());
    env_.cache->AddListener(strategy_->listener());
    engine_ = std::make_unique<QueryEngine>(
        env_.cube.grid.get(), env_.cache.get(), strategy_.get(),
        env_.backend.get(), env_.benefit.get(), env_.clock.get(), config);
  }

  // Ground truth from a fresh backend (no caching side effects).
  std::vector<ChunkData> Oracle(const Query& q) {
    BackendServer oracle(env_.table.get(), BackendCostModel(), nullptr);
    const GroupById gb = env_.lattice().IdOf(q.level);
    return oracle.ExecuteChunkQuery(gb, ChunksForQuery(env_.grid(), q)).chunks;
  }

  void ExpectMatchesOracle(std::vector<ChunkData> got, const Query& q) {
    std::vector<ChunkData> want = Oracle(q);
    ASSERT_EQ(got.size(), want.size());
    // Order can differ (cache-answered chunks first); match by chunk id.
    auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
      return a.chunk < b.chunk;
    };
    std::sort(got.begin(), got.end(), by_chunk);
    std::sort(want.begin(), want.end(), by_chunk);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].chunk, want[i].chunk);
      EXPECT_TRUE(ChunkDataEquals(env_.schema().num_dims(), &got[i],
                                  &want[i]));
    }
  }

  TestEnv env_;
  std::unique_ptr<VcmcStrategy> strategy_;
  std::unique_ptr<QueryEngine> engine_;
};

// Occurrences of `needle` in `haystack` (EXPLAIN route lines per chunk).
int64_t CountOf(const std::string& haystack, const std::string& needle) {
  int64_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST_F(QueryEngineTest, ColdQueryGoesToBackend) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  QueryStats stats;
  std::vector<ChunkData> result =
      CopyChunks(engine_->ExecuteQuery(q, &stats).chunks);
  EXPECT_FALSE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_backend, stats.chunks_requested);
  EXPECT_GT(stats.backend_ms, 0.0);
  ExpectMatchesOracle(std::move(result), q);
}

TEST_F(QueryEngineTest, RepeatQueryIsDirectHit) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  engine_->ExecuteQuery(q, nullptr);
  QueryStats stats;
  std::vector<ChunkData> result =
      CopyChunks(engine_->ExecuteQuery(q, &stats).chunks);
  EXPECT_TRUE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_direct, stats.chunks_requested);
  EXPECT_EQ(stats.chunks_backend, 0);
  EXPECT_EQ(stats.backend_ms, 0.0);
  ExpectMatchesOracle(std::move(result), q);
}

TEST_F(QueryEngineTest, RollUpAnsweredByAggregation) {
  // Load the base level, then ask an aggregated query: the active cache
  // answers it without the backend.
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  env_.backend->ResetStats();

  Query roll_up = Query::WholeLevel(env_.schema(), LevelVector{0, 1});
  QueryStats stats;
  std::vector<ChunkData> result =
      CopyChunks(engine_->ExecuteQuery(roll_up, &stats).chunks);
  EXPECT_TRUE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_aggregated, stats.chunks_requested);
  EXPECT_EQ(env_.backend->stats().queries, 0);
  EXPECT_GT(stats.tuples_aggregated, 0);
  ExpectMatchesOracle(std::move(result), roll_up);
}

// Answers share the cache's chunks instead of copying them: a fetched or
// computed chunk is the very chunk the cache admitted, and a direct hit is
// the cache's own entry.
TEST_F(QueryEngineTest, AnswersShareTheCachedChunks) {
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  const QueryResult fetched = engine_->ExecuteQuery(base_q, nullptr);
  ASSERT_FALSE(fetched.chunks.empty());
  for (const ChunkRef& chunk : fetched.chunks) {
    EXPECT_EQ(env_.cache->Peek({chunk->gb, chunk->chunk}), chunk.get());
  }
  Query roll_up = Query::WholeLevel(env_.schema(), LevelVector{0, 1});
  QueryStats stats;
  const QueryResult computed = engine_->ExecuteQuery(roll_up, &stats);
  ASSERT_EQ(stats.chunks_aggregated, stats.chunks_requested);
  for (const ChunkRef& chunk : computed.chunks) {
    EXPECT_EQ(env_.cache->Peek({chunk->gb, chunk->chunk}), chunk.get());
  }
  const QueryResult direct = engine_->ExecuteQuery(roll_up, &stats);
  ASSERT_EQ(stats.chunks_direct, stats.chunks_requested);
  ASSERT_EQ(direct.chunks.size(), computed.chunks.size());
  for (size_t i = 0; i < direct.chunks.size(); ++i) {
    EXPECT_EQ(direct.chunks[i].get(), computed.chunks[i].get());
  }
}

TEST_F(QueryEngineTest, ComputedChunksAreCachedForReuse) {
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  Query roll_up = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  engine_->ExecuteQuery(roll_up, nullptr);
  // Second time: direct hit on the cached computed chunk.
  QueryStats stats;
  engine_->ExecuteQuery(roll_up, &stats);
  EXPECT_EQ(stats.chunks_direct, stats.chunks_requested);
  EXPECT_EQ(stats.chunks_aggregated, 0);
}

TEST_F(QueryEngineTest, CacheComputedDisabledRecomputesEachTime) {
  QueryEngine::Config config;
  config.cache_computed_results = false;
  Reset(MakeSmallCube(), kBigCache, config);
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  Query roll_up = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  engine_->ExecuteQuery(roll_up, nullptr);
  QueryStats stats;
  engine_->ExecuteQuery(roll_up, &stats);
  EXPECT_EQ(stats.chunks_aggregated, stats.chunks_requested);
  EXPECT_EQ(stats.chunks_direct, 0);
}

TEST_F(QueryEngineTest, PartialHitFetchesOnlyMissing) {
  // Cache half the base level via a range query, then ask for the whole
  // level: only the other half goes to the backend.
  Query half;
  half.level = env_.schema().base_level();
  half.ranges[0] = {0, 6};   // product chunks 0,1 of 4
  half.ranges[1] = {0, 8};   // all time
  engine_->ExecuteQuery(half, nullptr);
  env_.backend->ResetStats();

  Query whole = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  QueryStats stats;
  std::vector<ChunkData> result =
      CopyChunks(engine_->ExecuteQuery(whole, &stats).chunks);
  EXPECT_FALSE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_direct, 4);
  EXPECT_EQ(stats.chunks_backend, 4);
  EXPECT_EQ(env_.backend->stats().queries, 1);  // one SQL for all missing
  ExpectMatchesOracle(std::move(result), whole);
}

TEST_F(QueryEngineTest, MixedAggregationAndBackend) {
  // Cache base chunks covering product chunk 0 only; an aggregated query
  // over all products aggregates what it can and fetches the rest.
  Query half;
  half.level = env_.schema().base_level();
  half.ranges[0] = {0, 3};  // product chunk 0
  half.ranges[1] = {0, 8};
  engine_->ExecuteQuery(half, nullptr);

  // Roll up time only: (2,0) chunks with product coordinate 0 are covered
  // by the cached base chunks; other product chunks must hit the backend.
  Query agg = Query::WholeLevel(env_.schema(), LevelVector{2, 0});
  QueryStats stats;
  std::vector<ChunkData> result =
      CopyChunks(engine_->ExecuteQuery(agg, &stats).chunks);
  EXPECT_FALSE(stats.complete_hit);
  EXPECT_GT(stats.chunks_aggregated, 0);
  EXPECT_GT(stats.chunks_backend, 0);
  ExpectMatchesOracle(std::move(result), agg);
}

TEST_F(QueryEngineTest, NoAggregationStrategyMissesRollUps) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.7, 41, kBigCache);
  NoAggregationStrategy no_agg(env.cache.get());
  QueryEngine engine(env.cube.grid.get(), env.cache.get(), &no_agg,
                     env.backend.get(), env.benefit.get(), env.clock.get(), {});
  Query base_q = Query::WholeLevel(env.schema(), env.schema().base_level());
  engine.ExecuteQuery(base_q, nullptr);
  Query roll_up = Query::WholeLevel(env.schema(), LevelVector{0, 1});
  QueryStats stats;
  engine.ExecuteQuery(roll_up, &stats);
  EXPECT_FALSE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_backend, stats.chunks_requested);
}

TEST_F(QueryEngineTest, StatsPhasesArePopulated) {
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  Query roll_up = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  QueryStats stats;
  engine_->ExecuteQuery(roll_up, &stats);
  EXPECT_GE(stats.lookup_ms, 0.0);
  EXPECT_GT(stats.aggregation_ms, 0.0);
  EXPECT_GE(stats.update_ms, 0.0);
  EXPECT_EQ(stats.backend_ms, 0.0);
  EXPECT_NEAR(stats.TotalMs(),
              stats.lookup_ms + stats.aggregation_ms + stats.update_ms +
                  stats.backend_ms,
              1e-9);
}

TEST_F(QueryEngineTest, ZeroCapacityCacheDegradesToPureBackend) {
  Reset(MakeSmallCube(), /*capacity=*/0);
  for (int round = 0; round < 2; ++round) {
    Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
    QueryStats stats;
    std::vector<ChunkData> result =
        CopyChunks(engine_->ExecuteQuery(q, &stats).chunks);
    EXPECT_FALSE(stats.complete_hit);
    EXPECT_EQ(stats.chunks_backend, stats.chunks_requested);
    ExpectMatchesOracle(std::move(result), q);
  }
  EXPECT_EQ(env_.cache->num_entries(), 0u);
}

TEST_F(QueryEngineTest, ExplainDescribesRoutes) {
  // Cold: everything is a miss.
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  std::string cold = engine_->ExplainQuery(q);
  EXPECT_NE(cold.find("MISS -> backend"), std::string::npos);
  EXPECT_NE(cold.find("VCMC"), std::string::npos);

  // Warm the base, re-explain an aggregate: now it's an aggregation plan.
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  std::string warm = engine_->ExplainQuery(q);
  EXPECT_NE(warm.find("aggregate"), std::string::npos);
  EXPECT_NE(warm.find("[cached]"), std::string::npos);
  EXPECT_EQ(warm.find("MISS"), std::string::npos);

  // Re-asking the warmed base level is a direct hit.
  std::string direct = engine_->ExplainQuery(base_q);
  EXPECT_NE(direct.find("direct cache hit"), std::string::npos);
  // Explain has no side effects on the answer path.
  QueryStats stats;
  engine_->ExecuteQuery(q, &stats);
  EXPECT_TRUE(stats.complete_hit);
}

TEST_F(QueryEngineTest, ExplainShowsBypassDecision) {
  QueryEngine::Config config;
  config.cost_based_bypass = true;
  config.cache_aggregation_ns_per_tuple = 1e12;
  Reset(MakeSmallCube(), kBigCache, config);
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  Query top = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  std::string out = engine_->ExplainQuery(top);
  EXPECT_NE(out.find("BYPASSED"), std::string::npos);
  // Execution takes the route EXPLAIN printed.
  QueryStats stats;
  engine_->ExecuteQuery(top, &stats);
  EXPECT_EQ(CountOf(out, "BYPASSED -> backend"), stats.chunks_bypassed) << out;
  EXPECT_EQ(stats.chunks_backend, stats.chunks_bypassed);
}

// With no chunk missing, bypassing would make the backend pay its fixed
// per-query overhead too; at this aggregation rate that tips the decision
// back to the cache. EXPLAIN must reach the same verdict as execution.
TEST_F(QueryEngineTest, ExplainBypassAgreesWithExecution) {
  QueryEngine::Config config;
  config.cost_based_bypass = true;
  config.cache_aggregation_ns_per_tuple = 1e4;
  Reset(MakeSmallCube(), kBigCache, config);
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);

  Query top = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  const std::string out = engine_->ExplainQuery(top);
  QueryStats stats;
  engine_->ExecuteQuery(top, &stats);
  EXPECT_EQ(stats.chunks_aggregated, 1);
  EXPECT_EQ(stats.chunks_bypassed, 0);
  EXPECT_NE(out.find("aggregate"), std::string::npos) << out;
  EXPECT_EQ(out.find("BYPASSED"), std::string::npos) << out;
}

// A query the result cache would answer is explained as a result-cache hit,
// and asking does not count as a probe or touch replacement state.
TEST_F(QueryEngineTest, ExplainReportsResultCacheHitWithoutSideEffects) {
  ResultCache results{ResultCache::Config()};
  engine_->set_result_cache(&results);
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  QueryStats first;
  engine_->ExecuteQuery(q, &first);
  ASSERT_TRUE(first.result_cache_admitted);

  const ResultCacheStats before = results.stats();
  const std::string out = engine_->ExplainQuery(q);
  const ResultCacheStats after = results.stats();
  EXPECT_NE(out.find("result cache hit"), std::string::npos) << out;
  EXPECT_EQ(out.find("direct cache hit"), std::string::npos) << out;
  EXPECT_EQ(before.probes, after.probes);
  EXPECT_EQ(before.hits, after.hits);
  EXPECT_EQ(before.misses, after.misses);
  EXPECT_EQ(before.admitted, after.admitted);
  EXPECT_EQ(before.rejected, after.rejected);
  EXPECT_EQ(before.evictions, after.evictions);
  EXPECT_EQ(before.invalidated, after.invalidated);

  QueryStats second;
  engine_->ExecuteQuery(q, &second);
  EXPECT_TRUE(second.result_cache_hit);
}

// Breaker open: chunks the cache cannot answer are explained as
// UNAVAILABLE, one line per chunk execution then reports unavailable.
TEST_F(QueryEngineTest, ExplainBreakerOpenMatchesUnavailableChunks) {
  QueryEngine::Config config;
  config.circuit_breaker = true;
  config.cost_based_bypass = true;  // suspended while the breaker is open
  Reset(MakeSmallCube(), kBigCache, config);
  Query half;
  half.level = env_.schema().base_level();
  half.ranges[0] = {0, 6};  // product chunks 0,1 of 4
  half.ranges[1] = {0, 8};  // all time
  engine_->ExecuteQuery(half, nullptr);
  CircuitBreaker* breaker = engine_->circuit_breaker();
  for (int i = 0; i < config.breaker.failure_threshold; ++i) {
    breaker->RecordFailure();
  }
  ASSERT_EQ(breaker->state(), BreakerState::kOpen);

  Query whole = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  const std::string out = engine_->ExplainQuery(whole);
  QueryStats stats;
  engine_->ExecuteQuery(whole, &stats);
  EXPECT_EQ(stats.status, ResultStatus::kDegradedPartial);
  EXPECT_EQ(stats.chunks_unavailable, 4);
  EXPECT_EQ(CountOf(out, "MISS -> UNAVAILABLE"), stats.chunks_unavailable)
      << out;
  EXPECT_EQ(CountOf(out, "direct cache hit"), stats.chunks_direct) << out;
}

TEST_F(QueryEngineTest, SmallCacheStillAnswersCorrectly) {
  // Capacity for only ~8 tuples: constant churn, answers must stay right.
  Reset(MakeSmallCube(), /*capacity=*/80);
  for (GroupById gb = 0; gb < env_.lattice().num_groupbys(); ++gb) {
    Query q = Query::WholeLevel(env_.schema(), env_.lattice().LevelOf(gb));
    ExpectMatchesOracle(CopyChunks(engine_->ExecuteQuery(q, nullptr).chunks),
                        q);
  }
}

}  // namespace
}  // namespace aac
