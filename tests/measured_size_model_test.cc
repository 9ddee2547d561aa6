#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/fact_table.h"
#include "storage/measured_size_model.h"
#include "test_util.h"
#include "workload/apb_schema.h"
#include "workload/data_generator.h"
#include "workload/web_schema.h"

namespace aac {
namespace {

// Exact sizes computed the direct way: for every group-by, map every fact
// tuple to its (cell id, chunk) at that level, sort, and count distinct
// cells per chunk.
struct BruteForceSizes {
  std::vector<std::vector<int64_t>> chunk_tuples;  // [gb][chunk]
  std::vector<int64_t> gb_tuples;                  // [gb]
};

BruteForceSizes MeasureByBruteForce(const ChunkGrid& grid,
                                    const FactTable& table) {
  const Lattice& lattice = grid.lattice();
  const Schema& schema = grid.schema();
  const LevelVector& base_lv = schema.base_level();
  const int nd = schema.num_dims();
  BruteForceSizes sizes;
  sizes.chunk_tuples.resize(static_cast<size_t>(lattice.num_groupbys()));
  sizes.gb_tuples.resize(static_cast<size_t>(lattice.num_groupbys()));
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    const LevelVector& lv = lattice.LevelOf(gb);
    std::array<int64_t, kMaxDims> strides{};
    int64_t cells = 1;
    for (int d = nd - 1; d >= 0; --d) {
      strides[static_cast<size_t>(d)] = cells;
      cells *= schema.dimension(d).cardinality(lv[d]);
    }
    std::vector<std::pair<int64_t, ChunkId>> keys;
    for (const Cell& t : table.tuples()) {
      std::array<int32_t, kMaxDims> mapped{};
      int64_t cell_id = 0;
      for (int d = 0; d < nd; ++d) {
        mapped[static_cast<size_t>(d)] = schema.dimension(d).AncestorValue(
            base_lv[d], t.values[static_cast<size_t>(d)], lv[d]);
        cell_id += mapped[static_cast<size_t>(d)] *
                   strides[static_cast<size_t>(d)];
      }
      keys.emplace_back(cell_id, grid.ChunkOfCell(gb, mapped.data()));
    }
    std::sort(keys.begin(), keys.end());
    std::vector<int64_t>& per_chunk =
        sizes.chunk_tuples[static_cast<size_t>(gb)];
    per_chunk.assign(static_cast<size_t>(grid.NumChunks(gb)), 0);
    int64_t distinct = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i > 0 && keys[i].first == keys[i - 1].first) continue;
      ++distinct;
      ++per_chunk[static_cast<size_t>(keys[i].second)];
    }
    sizes.gb_tuples[static_cast<size_t>(gb)] = distinct;
  }
  return sizes;
}

// Every chunk of every group-by, and every group-by total, equals the
// brute-force count exactly.
void ExpectMatchesBruteForce(const ChunkGrid& grid, const FactTable& table) {
  const MeasuredChunkSizeModel model(&grid, &table);
  const BruteForceSizes want = MeasureByBruteForce(grid, table);
  int64_t mismatches = 0;
  for (GroupById gb = 0; gb < grid.lattice().num_groupbys(); ++gb) {
    EXPECT_EQ(model.ExpectedGroupByTuples(gb),
              static_cast<double>(want.gb_tuples[static_cast<size_t>(gb)]))
        << "group-by " << gb;
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      const double expected = static_cast<double>(
          want.chunk_tuples[static_cast<size_t>(gb)][static_cast<size_t>(c)]);
      if (model.ExpectedChunkTuples(gb, c) != expected) {
        ADD_FAILURE() << "group-by " << gb << " chunk " << c << ": model "
                      << model.ExpectedChunkTuples(gb, c) << ", brute force "
                      << expected;
        if (++mismatches > 10) return;
      }
    }
  }
}

std::vector<Cell> ApbFacts(const ApbCube& cube, uint64_t seed, int dense_dim) {
  DataGenConfig config;
  config.num_tuples = 12'000;
  config.dense_dim = dense_dim;
  config.seed = seed;
  return GenerateFactData(cube.schema(), config);
}

TEST(MeasuredChunkSizeModel, ApbDenseMatchesBruteForce) {
  const ApbCube cube;
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const FactTable table(&cube.grid(), ApbFacts(cube, seed, /*time*/ 2));
    ExpectMatchesBruteForce(cube.grid(), table);
  }
}

TEST(MeasuredChunkSizeModel, ApbSparseMatchesBruteForce) {
  const ApbCube cube;
  for (uint64_t seed : {4, 5, 6}) {
    SCOPED_TRACE(seed);
    const FactTable table(&cube.grid(), ApbFacts(cube, seed, -1));
    ExpectMatchesBruteForce(cube.grid(), table);
  }
}

// At scale 4 the APB base level has 22.6G cells, past 32-bit cell ids.
TEST(MeasuredChunkSizeModel, WideCellIdsMatchBruteForce) {
  const ApbCube cube(ApbConfig{4});
  ASSERT_GT(cube.schema().NumCells(cube.schema().base_level()),
            int64_t{1} << 32);
  DataGenConfig config;
  config.num_tuples = 4'000;
  config.dense_dim = 2;
  config.seed = 10;
  const FactTable table(&cube.grid(), GenerateFactData(cube.schema(), config));
  ExpectMatchesBruteForce(cube.grid(), table);
}

TEST(MeasuredChunkSizeModel, WebCubeMatchesBruteForce) {
  const WebCube cube;
  DataGenConfig config;
  config.num_tuples = 20'000;
  config.seed = 7;
  const FactTable table(&cube.grid(),
                        GenerateFactData(cube.schema(), config));
  ExpectMatchesBruteForce(cube.grid(), table);
}

TEST(MeasuredChunkSizeModel, RandomCubesMatchBruteForce) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE(seed);
    const TestCube cube = MakeRandomCube(seed);
    const FactTable table(cube.grid.get(),
                          RandomBaseCells(cube, 0.3, seed + 100));
    ExpectMatchesBruteForce(*cube.grid, table);
  }
}

TEST(MeasuredChunkSizeModel, MatchesBruteForceAfterApplyInserts) {
  const ApbCube cube;
  FactTable table(&cube.grid(), ApbFacts(cube, 8, 2));
  // New cells, some repeated within the batch and some already present.
  std::vector<Cell> batch = ApbFacts(cube, 9, -1);
  batch.resize(2'000);
  const std::vector<Cell> repeated(batch.begin(), batch.begin() + 100);
  const std::vector<Cell> existing(table.tuples().begin(),
                                   table.tuples().begin() + 300);
  batch.insert(batch.end(), repeated.begin(), repeated.end());
  batch.insert(batch.end(), existing.begin(), existing.end());
  table.ApplyInserts(std::move(batch));
  ExpectMatchesBruteForce(cube.grid(), table);
}

TEST(MeasuredChunkSizeModel, EmptyTableMeasuresZeroEverywhere) {
  const ApbCube cube;
  const FactTable table(&cube.grid(), {});
  const MeasuredChunkSizeModel model(&cube.grid(), &table);
  for (GroupById gb = 0; gb < cube.lattice().num_groupbys(); ++gb) {
    EXPECT_EQ(model.ExpectedGroupByTuples(gb), 0.0);
    for (ChunkId c = 0; c < cube.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(model.ExpectedChunkTuples(gb, c), 0.0);
    }
  }
}

}  // namespace
}  // namespace aac
