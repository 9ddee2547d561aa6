#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "storage/fact_table.h"
#include "test_util.h"
#include "util/rng.h"

namespace aac {
namespace {

Cell MakeCell(int32_t a, int32_t b, double m) {
  Cell c;
  c.values[0] = a;
  c.values[1] = b;
  c.measure = m;
  return c;
}

TEST(FactTable, ChunkSlicesPartitionTuples) {
  TestCube cube = MakeSmallCube();
  std::vector<Cell> cells = RandomBaseCells(cube, 0.5, 42);
  const size_t n = cells.size();
  FactTable table(cube.grid.get(), std::move(cells));
  EXPECT_EQ(table.num_tuples(), static_cast<int64_t>(n));
  int64_t total = 0;
  for (ChunkId c = 0; c < table.num_chunks(); ++c) {
    total += table.ChunkTupleCount(c);
    EXPECT_EQ(table.ChunkTupleCount(c),
              static_cast<int64_t>(table.ChunkSlice(c).size()));
  }
  EXPECT_EQ(total, table.num_tuples());
}

TEST(FactTable, SliceTuplesBelongToChunk) {
  TestCube cube = MakeThreeDimCube();
  FactTable table(cube.grid.get(), RandomBaseCells(cube, 0.7, 7));
  const GroupById base = table.base_gb();
  for (ChunkId c = 0; c < table.num_chunks(); ++c) {
    for (const Cell& cell : table.ChunkSlice(c)) {
      EXPECT_EQ(cube.grid->ChunkOfCell(base, cell.values.data()), c);
    }
  }
}

TEST(FactTable, DuplicateCellsAreCombined) {
  TestCube cube = MakeSmallCube();
  std::vector<Cell> cells;
  cells.push_back(MakeCell(0, 0, 1.0));
  cells.push_back(MakeCell(0, 0, 2.0));
  cells.push_back(MakeCell(3, 1, 5.0));
  FactTable table(cube.grid.get(), std::move(cells));
  EXPECT_EQ(table.num_tuples(), 2);
  double total = 0;
  for (const Cell& c : table.tuples()) total += c.measure;
  EXPECT_DOUBLE_EQ(total, 8.0);
}

TEST(FactTable, EmptyTable) {
  TestCube cube = MakeSmallCube();
  FactTable table(cube.grid.get(), {});
  EXPECT_EQ(table.num_tuples(), 0);
  for (ChunkId c = 0; c < table.num_chunks(); ++c) {
    EXPECT_EQ(table.ChunkTupleCount(c), 0);
  }
}

TEST(FactTable, MeasureSumPreserved) {
  TestCube cube = MakeThreeDimCube();
  std::vector<Cell> cells = RandomBaseCells(cube, 0.4, 99);
  double expected = 0;
  for (const Cell& c : cells) expected += c.measure;
  FactTable table(cube.grid.get(), std::move(cells));
  double got = 0;
  for (const Cell& c : table.tuples()) got += c.measure;
  EXPECT_NEAR(got, expected, 1e-9);
}

// Incremental inserts leave exactly the table a from-scratch build over the
// union of all cells produces: the same tuples in the same clustered order,
// the same chunk slices. Measures are small integers, so merged sums are
// exact whatever order duplicates combine in.
TEST(FactTable, ApplyInsertsEqualsRebuildFromScratch) {
  for (uint64_t seed : {3, 11, 29}) {
    SCOPED_TRACE(seed);
    TestCube cube = MakeThreeDimCube();
    std::vector<Cell> all = RandomBaseCells(cube, 0.3, seed);
    FactTable table(cube.grid.get(), all);
    Rng rng(seed + 1);
    const std::vector<Cell> pool = RandomBaseCells(cube, 0.5, seed + 2);
    for (int batch = 0; batch < 10; ++batch) {
      std::vector<Cell> cells;
      for (int i = 0; i < 40; ++i) {
        cells.push_back(pool[rng.Uniform(pool.size())]);
      }
      // Cells repeated within the batch, and cells the table already holds.
      cells.push_back(cells.front());
      cells.push_back(cells.back());
      for (int i = 0; i < 5; ++i) {
        cells.push_back(table.tuples()[rng.Uniform(
            static_cast<uint64_t>(table.num_tuples()))]);
      }
      all.insert(all.end(), cells.begin(), cells.end());
      std::vector<ChunkId> want_affected;
      for (const Cell& c : cells) {
        want_affected.push_back(
            cube.grid->ChunkOfCell(table.base_gb(), c.values.data()));
      }
      std::sort(want_affected.begin(), want_affected.end());
      want_affected.erase(
          std::unique(want_affected.begin(), want_affected.end()),
          want_affected.end());

      EXPECT_EQ(table.ApplyInserts(std::move(cells)), want_affected);
      const FactTable scratch(cube.grid.get(), all);
      ASSERT_EQ(table.num_tuples(), scratch.num_tuples());
      for (ChunkId c = 0; c < table.num_chunks(); ++c) {
        EXPECT_EQ(table.ChunkTupleCount(c), scratch.ChunkTupleCount(c));
      }
      for (int64_t i = 0; i < table.num_tuples(); ++i) {
        const Cell& got = table.tuples()[static_cast<size_t>(i)];
        const Cell& want = scratch.tuples()[static_cast<size_t>(i)];
        ASSERT_EQ(got.values, want.values) << "batch " << batch << " " << i;
        EXPECT_EQ(got.measure, want.measure);
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.min, want.min);
        EXPECT_EQ(got.max, want.max);
      }
    }
  }
}

}  // namespace
}  // namespace aac
