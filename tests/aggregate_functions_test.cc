#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/query.h"
#include "core/query_engine.h"
#include "core/vcmc.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

// Ground-truth aggregate over raw base cells restricted to the query.
std::map<std::vector<int32_t>, std::vector<double>> OracleRows(
    const TestEnv& env, const Query& q) {
  const Schema& schema = env.schema();
  const int nd = schema.num_dims();
  const LevelVector& base = schema.base_level();
  // values -> (sum, count, min, max)
  std::map<std::vector<int32_t>, std::vector<double>> out;
  for (const Cell& c : env.base_cells) {
    std::vector<int32_t> mapped(static_cast<size_t>(nd));
    bool inside = true;
    for (int d = 0; d < nd; ++d) {
      mapped[static_cast<size_t>(d)] = schema.dimension(d).AncestorValue(
          base[d], c.values[static_cast<size_t>(d)], q.level[d]);
      const auto [lo, hi] = q.ranges[static_cast<size_t>(d)];
      if (mapped[static_cast<size_t>(d)] < lo ||
          mapped[static_cast<size_t>(d)] >= hi) {
        inside = false;
        break;
      }
    }
    if (!inside) continue;
    auto it = out.find(mapped);
    if (it == out.end()) {
      out[mapped] = {c.measure, 1.0, c.measure, c.measure};
    } else {
      it->second[0] += c.measure;
      it->second[1] += 1.0;
      it->second[2] = std::min(it->second[2], c.measure);
      it->second[3] = std::max(it->second[3], c.measure);
    }
  }
  return out;
}

class AggregateFunctionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeTestEnv(MakeSmallCube(), 0.7, 71, kBigCache,
                       /*two_level_policy=*/true);
    strategy_ = std::make_unique<VcmcStrategy>(
        env_.cube.grid.get(), env_.cache.get(), env_.size_model.get());
    env_.cache->AddListener(strategy_->listener());
    engine_ = std::make_unique<QueryEngine>(
        env_.cube.grid.get(), env_.cache.get(), strategy_.get(),
        env_.backend.get(), env_.benefit.get(), env_.clock.get(),
        QueryEngine::Config());
    // Warm the cache with the base level so aggregate answers flow through
    // the in-cache aggregation path (the interesting one).
    Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
    engine_->ExecuteQuery(base_q, nullptr);
  }

  void CheckAllFunctions(Query q) {
    std::vector<ChunkData> chunks =
        CopyChunks(engine_->ExecuteQuery(q, nullptr).chunks);
    auto oracle = OracleRows(env_, q);
    for (AggregateFunction fn :
         {AggregateFunction::kSum, AggregateFunction::kCount,
          AggregateFunction::kMin, AggregateFunction::kMax,
          AggregateFunction::kAvg}) {
      q.fn = fn;
      std::vector<ResultRow> rows = RefineResult(env_.schema(), q, chunks);
      ASSERT_EQ(rows.size(), oracle.size()) << AggregateFunctionName(fn);
      for (const ResultRow& row : rows) {
        std::vector<int32_t> key(row.values.begin(),
                                 row.values.begin() + env_.schema().num_dims());
        auto it = oracle.find(key);
        ASSERT_NE(it, oracle.end());
        const auto& [sum, count, min, max] =
            std::tie(it->second[0], it->second[1], it->second[2],
                     it->second[3]);
        double want = 0;
        switch (fn) {
          case AggregateFunction::kSum:
            want = sum;
            break;
          case AggregateFunction::kCount:
            want = count;
            break;
          case AggregateFunction::kMin:
            want = min;
            break;
          case AggregateFunction::kMax:
            want = max;
            break;
          case AggregateFunction::kAvg:
            want = sum / count;
            break;
        }
        EXPECT_NEAR(row.value, want, 1e-9) << AggregateFunctionName(fn);
      }
    }
  }

  TestEnv env_;
  std::unique_ptr<VcmcStrategy> strategy_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(AggregateFunctionsTest, AllFunctionsAtRolledUpLevel) {
  // Answered by in-cache aggregation from the base chunks.
  CheckAllFunctions(Query::WholeLevel(env_.schema(), LevelVector{1, 0}));
}

TEST_F(AggregateFunctionsTest, AllFunctionsAtTopLevel) {
  CheckAllFunctions(Query::WholeLevel(env_.schema(), LevelVector{0, 0}));
}

TEST_F(AggregateFunctionsTest, AllFunctionsWithRangeSelection) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{2, 0});
  q.ranges[0] = {3, 9};
  CheckAllFunctions(q);
}

TEST_F(AggregateFunctionsTest, RefineFiltersToExactRanges) {
  Query q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  q.ranges[0] = {2, 5};  // cuts across chunk boundaries (chunks of 3)
  q.ranges[1] = {1, 6};
  std::vector<ChunkData> chunks =
      CopyChunks(engine_->ExecuteQuery(q, nullptr).chunks);
  std::vector<ResultRow> rows = RefineResult(env_.schema(), q, chunks);
  for (const ResultRow& row : rows) {
    EXPECT_GE(row.values[0], 2);
    EXPECT_LT(row.values[0], 5);
    EXPECT_GE(row.values[1], 1);
    EXPECT_LT(row.values[1], 6);
  }
  EXPECT_EQ(rows.size(), OracleRows(env_, q).size());
}

TEST(CellAggregates, InitAndMerge) {
  Cell a;
  InitCellAggregates(a, 5.0);
  EXPECT_EQ(a.count, 1);
  EXPECT_EQ(a.min, 5.0);
  Cell b;
  InitCellAggregates(b, 2.0);
  MergeCellAggregates(a, b);
  EXPECT_DOUBLE_EQ(a.measure, 7.0);
  EXPECT_EQ(a.count, 2);
  EXPECT_DOUBLE_EQ(a.min, 2.0);
  EXPECT_DOUBLE_EQ(a.max, 5.0);
}

TEST(CellAggregates, CellValueExtraction) {
  Cell c;
  InitCellAggregates(c, 4.0);
  Cell d;
  InitCellAggregates(d, 8.0);
  MergeCellAggregates(c, d);
  EXPECT_DOUBLE_EQ(CellValue(c, AggregateFunction::kSum), 12.0);
  EXPECT_DOUBLE_EQ(CellValue(c, AggregateFunction::kCount), 2.0);
  EXPECT_DOUBLE_EQ(CellValue(c, AggregateFunction::kMin), 4.0);
  EXPECT_DOUBLE_EQ(CellValue(c, AggregateFunction::kMax), 8.0);
  EXPECT_DOUBLE_EQ(CellValue(c, AggregateFunction::kAvg), 6.0);
}

TEST(CellAggregates, AvgOfEmptyCellIsZero) {
  Cell c;
  EXPECT_DOUBLE_EQ(CellValue(c, AggregateFunction::kAvg), 0.0);
}

TEST(CellAggregates, FunctionNames) {
  EXPECT_STREQ(AggregateFunctionName(AggregateFunction::kSum), "SUM");
  EXPECT_STREQ(AggregateFunctionName(AggregateFunction::kAvg), "AVG");
}

}  // namespace
}  // namespace aac
