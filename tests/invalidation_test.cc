#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/invalidation.h"
#include "core/query_engine.h"
#include "core/vcmc.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

Cell MakeCell(int32_t product, int32_t time, double measure) {
  Cell c;
  c.values[0] = product;
  c.values[1] = time;
  InitCellAggregates(c, measure);
  return c;
}

class InvalidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeTestEnv(MakeSmallCube(), 0.7, 101, kBigCache,
                       /*two_level_policy=*/true);
    strategy_ = std::make_unique<VcmcStrategy>(
        env_.cube.grid.get(), env_.cache.get(), env_.size_model.get());
    env_.cache->AddListener(strategy_->listener());
    engine_ = std::make_unique<QueryEngine>(
        env_.cube.grid.get(), env_.cache.get(), strategy_.get(),
        env_.backend.get(), env_.benefit.get(), env_.clock.get(),
        QueryEngine::Config());
  }

  // Non-const access to the env's fact table for updates.
  FactTable* table() { return env_.table.get(); }

  TestEnv env_;
  std::unique_ptr<VcmcStrategy> strategy_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(InvalidationTest, ApplyInsertsReportsAffectedChunks) {
  std::vector<Cell> updates{MakeCell(0, 0, 10.0), MakeCell(11, 7, 5.0),
                            MakeCell(1, 1, 2.0)};
  // Cells (0,0) and (1,1) share base chunk (product chunk 0, time chunk 0);
  // (11,7) is in (3,1).
  std::vector<ChunkId> affected = table()->ApplyInserts(updates);
  EXPECT_EQ(affected.size(), 2u);
}

TEST_F(InvalidationTest, UpdatedMeasureVisibleAfterInvalidation) {
  Query top = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  std::vector<ChunkData> before =
      CopyChunks(engine_->ExecuteQuery(top, nullptr).chunks);
  double before_total = 0;
  for (const auto& chunk : before) {
    for (const Cell& c : chunk.cells) before_total += c.measure;
  }

  // Add 100.0 of measure; the cached top chunk must be invalidated so the
  // next query sees it.
  const int64_t dropped =
      ApplyFactUpdates(table(), env_.cache.get(), {MakeCell(3, 2, 100.0)});
  EXPECT_GT(dropped, 0);

  std::vector<ChunkData> after =
      CopyChunks(engine_->ExecuteQuery(top, nullptr).chunks);
  double after_total = 0;
  for (const auto& chunk : after) {
    for (const Cell& c : chunk.cells) after_total += c.measure;
  }
  EXPECT_NEAR(after_total, before_total + 100.0, 1e-9);
}

TEST_F(InvalidationTest, UnaffectedChunksStayCached) {
  // Cache the whole base level; update one cell; only the chunks covering
  // it (one per group-by) may be dropped.
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  const size_t before = env_.cache->num_entries();

  const ChunkId updated = env_.grid().ChunkOfCell(
      env_.lattice().base_id(), MakeCell(0, 0, 1.0).values.data());
  ApplyFactUpdates(table(), env_.cache.get(), {MakeCell(0, 0, 1.0)});

  EXPECT_GE(env_.cache->num_entries(), before - env_.lattice().num_groupbys());
  // The updated base chunk is gone; its siblings are untouched.
  EXPECT_FALSE(env_.cache->Contains({env_.lattice().base_id(), updated}));
  int64_t surviving = 0;
  for (ChunkId c = 0; c < env_.grid().NumChunks(env_.lattice().base_id());
       ++c) {
    surviving += env_.cache->Contains({env_.lattice().base_id(), c});
  }
  EXPECT_EQ(surviving,
            env_.grid().NumChunks(env_.lattice().base_id()) - 1);
}

TEST_F(InvalidationTest, SharedCoarserChunksAreCountedOnce) {
  // Cache every chunk of every group-by.
  const Lattice& lat = env_.lattice();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    engine_->ExecuteQuery(Query::WholeLevel(env_.schema(), lat.LevelOf(gb)),
                          nullptr);
  }
  // Every base chunk: all of them share the top group-by's one chunk, so
  // each cached entry is stale and must be counted once.
  std::vector<ChunkId> base_chunks;
  for (ChunkId c = 0; c < env_.grid().NumChunks(lat.base_id()); ++c) {
    base_chunks.push_back(c);
  }
  std::vector<CacheKey> stale;
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env_.grid().NumChunks(gb); ++c) {
      if (env_.cache->Contains({gb, c})) stale.push_back({gb, c});
    }
  }
  ASSERT_TRUE(env_.cache->Contains({lat.top_id(), 0}));

  CacheInvalidator invalidator(&env_.grid(), env_.cache.get());
  EXPECT_EQ(invalidator.InvalidateForBaseChunks(base_chunks),
            static_cast<int64_t>(stale.size()));
  for (const CacheKey& key : stale) EXPECT_FALSE(env_.cache->Contains(key));
  EXPECT_EQ(env_.cache->num_entries(), 0u);
}

TEST_F(InvalidationTest, CountsStayConsistentAfterInvalidation) {
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  Query mid = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  engine_->ExecuteQuery(mid, nullptr);

  ApplyFactUpdates(table(), env_.cache.get(),
                   {MakeCell(5, 3, 9.0), MakeCell(9, 6, 4.0)});

  // Virtual counts were maintained through the eviction listeners.
  const std::vector<uint8_t> scratch = strategy_->counts().ComputeFromScratch();
  const Lattice& lat = env_.lattice();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env_.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(strategy_->counts().CountOf(gb, c),
                scratch[OracleIndex(env_, gb, c)]);
    }
  }
}

TEST_F(InvalidationTest, StreamStaysCorrectAcrossUpdates) {
  Rng rng(55);
  const Lattice& lat = env_.lattice();
  for (int i = 0; i < 20; ++i) {
    if (i % 5 == 4) {
      // Periodic batch of updates.
      std::vector<Cell> updates;
      for (int k = 0; k < 3; ++k) {
        updates.push_back(MakeCell(
            static_cast<int32_t>(rng.Uniform(12)),
            static_cast<int32_t>(rng.Uniform(8)),
            static_cast<double>(rng.Uniform(50)) + 1.0));
      }
      ApplyFactUpdates(table(), env_.cache.get(), std::move(updates));
    }
    const GroupById gb =
        static_cast<GroupById>(rng.Uniform(lat.num_groupbys()));
    Query q = Query::WholeLevel(env_.schema(), lat.LevelOf(gb));
    std::vector<ChunkData> got =
        CopyChunks(engine_->ExecuteQuery(q, nullptr).chunks);
    BackendServer oracle(env_.table.get(), BackendCostModel(), nullptr);
    std::vector<ChunkData> want =
        oracle.ExecuteChunkQuery(gb, ChunksForQuery(env_.grid(), q)).chunks;
    ASSERT_EQ(got.size(), want.size());
    auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
      return a.chunk < b.chunk;
    };
    std::sort(got.begin(), got.end(), by_chunk);
    std::sort(want.begin(), want.end(), by_chunk);
    for (size_t k = 0; k < got.size(); ++k) {
      ASSERT_TRUE(
          ChunkDataEquals(env_.schema().num_dims(), &got[k], &want[k]))
          << "query " << i;
    }
  }
}

}  // namespace
}  // namespace aac
