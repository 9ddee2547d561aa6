#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/concurrent_engine.h"
#include "core/vcmc.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeTestEnv(MakeSmallCube(), 0.7, 61, kBigCache,
                       /*two_level_policy=*/true, /*bytes_per_tuple=*/10,
                       /*num_shards=*/16);
    strategy_ = std::make_unique<VcmcStrategy>(
        env_.cube.grid.get(), env_.cache.get(), env_.size_model.get());
    env_.cache->AddListener(strategy_->listener());
    concurrent_ = std::make_unique<ConcurrentQueryEngine>([this] {
      return std::make_unique<QueryEngine>(
          env_.cube.grid.get(), env_.cache.get(), strategy_.get(),
          env_.backend.get(), env_.benefit.get(), env_.clock.get(),
          QueryEngine::Config());
    });
  }

  TestEnv env_;
  std::unique_ptr<VcmcStrategy> strategy_;
  std::unique_ptr<ConcurrentQueryEngine> concurrent_;
};

TEST_F(ConcurrentEngineTest, SingleThreadBehavesLikePlainEngine) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  QueryStats stats;
  std::vector<ChunkData> result =
      CopyChunks(concurrent_->ExecuteQuery(q, &stats).chunks);
  EXPECT_EQ(result.size(), static_cast<size_t>(stats.chunks_requested));
  EXPECT_EQ(concurrent_->queries_executed(), 1);
}

TEST_F(ConcurrentEngineTest, ManyThreadsManyQueriesAllCorrect) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;
  BackendServer oracle(env_.table.get(), BackendCostModel(), nullptr);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 977 + 5);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const GroupById gb = static_cast<GroupById>(
            rng.Uniform(env_.lattice().num_groupbys()));
        Query q = Query::WholeLevel(env_.schema(),
                                    env_.lattice().LevelOf(gb));
        std::vector<ChunkData> got =
            CopyChunks(concurrent_->ExecuteQuery(q, nullptr).chunks);
        std::vector<ChunkData> want =
            oracle.ExecuteChunkQuery(gb, ChunksForQuery(env_.grid(), q)).chunks;
        if (got.size() != want.size()) {
          ++failures;
          continue;
        }
        auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
          return a.chunk < b.chunk;
        };
        std::sort(got.begin(), got.end(), by_chunk);
        std::sort(want.begin(), want.end(), by_chunk);
        for (size_t k = 0; k < got.size(); ++k) {
          if (!ChunkDataEquals(env_.schema().num_dims(), &got[k], &want[k])) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(concurrent_->queries_executed(), kThreads * kQueriesPerThread);

  // Summary state is consistent after the storm.
  const std::vector<uint8_t> scratch = strategy_->counts().ComputeFromScratch();
  for (GroupById gb = 0; gb < env_.lattice().num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env_.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(strategy_->counts().CountOf(gb, c),
                scratch[OracleIndex(env_, gb, c)]);
    }
  }
}

}  // namespace
}  // namespace aac
