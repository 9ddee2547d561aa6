#ifndef AAC_TESTS_TEST_UTIL_H_
#define AAC_TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "chunks/chunk_grid.h"
#include "chunks/chunk_layout.h"
#include "schema/lattice.h"
#include "schema/schema.h"
#include "storage/chunk_data.h"
#include "storage/tuple.h"
#include "util/rng.h"

namespace aac {

// Owns a schema plus the derived lattice, chunk layouts and grid, keeping
// the non-owning pointers in ChunkGrid valid for the test's lifetime.
struct TestCube {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<Lattice> lattice;
  std::vector<std::unique_ptr<DimensionChunkLayout>> layouts;
  std::unique_ptr<ChunkGrid> grid;
};

// Two dimensions: product (h=2, cards 2/4/12, chunks 1/2/4) and
// time (h=1, cards 2/8, chunks 1/2). 6 group-bys. Small enough for
// brute-force oracles, rich enough to have multiple lattice paths.
inline TestCube MakeSmallCube() {
  TestCube c;
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Uniform("product", 2, {2, 3}));
  dims.push_back(Dimension::Uniform("time", 2, {4}));
  c.schema = std::make_unique<Schema>(std::move(dims));
  c.lattice = std::make_unique<Lattice>(c.schema.get());
  c.layouts.push_back(std::make_unique<DimensionChunkLayout>(
      DimensionChunkLayout::UniformValuesPerChunk(&c.schema->dimension(0),
                                                  {2, 2, 3})));
  c.layouts.push_back(std::make_unique<DimensionChunkLayout>(
      DimensionChunkLayout::UniformValuesPerChunk(&c.schema->dimension(1),
                                                  {2, 4})));
  std::vector<const DimensionChunkLayout*> ptrs;
  for (const auto& l : c.layouts) ptrs.push_back(l.get());
  c.grid = std::make_unique<ChunkGrid>(c.lattice.get(), std::move(ptrs));
  return c;
}

// Three dimensions including a non-uniform hierarchy; 2*3*2 = 12 group-bys.
inline TestCube MakeThreeDimCube() {
  TestCube c;
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Uniform("a", 1, {4}));  // h=1: cards 1/4
  // h=2, non-uniform: cards 2 / 5 / 11.
  dims.push_back(Dimension("b", {"top", "mid", "leaf"}, 2,
                           {{0, 0, 0, 1, 1}, {0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 4}}));
  dims.push_back(Dimension::Uniform("c", 3, {2}));  // h=1: cards 3/6
  c.schema = std::make_unique<Schema>(std::move(dims));
  c.lattice = std::make_unique<Lattice>(c.schema.get());
  c.layouts.push_back(std::make_unique<DimensionChunkLayout>(
      DimensionChunkLayout::UniformValuesPerChunk(&c.schema->dimension(0),
                                                  {1, 2})));
  // Explicit boundaries for the non-uniform dimension, hierarchy-aligned:
  // level0 chunks {0},{1}; level1 chunks {0..2},{3,4}; level2 {0..6},{7..10}
  // (children of level1 values 0..2 are exactly values 0..6).
  c.layouts.push_back(std::make_unique<DimensionChunkLayout>(
      &c.schema->dimension(1),
      std::vector<std::vector<int32_t>>{{0, 1}, {0, 3}, {0, 7}}));
  c.layouts.push_back(std::make_unique<DimensionChunkLayout>(
      DimensionChunkLayout::UniformValuesPerChunk(&c.schema->dimension(2),
                                                  {3, 3})));
  std::vector<const DimensionChunkLayout*> ptrs;
  for (const auto& l : c.layouts) ptrs.push_back(l.get());
  c.grid = std::make_unique<ChunkGrid>(c.lattice.get(), std::move(ptrs));
  return c;
}

// Fully randomized cube: random dimension count, non-uniform hierarchies
// and hierarchy-aligned random chunk boundaries. The fuzzing counterpart of
// the fixed test cubes above.
inline TestCube MakeRandomCube(uint64_t seed) {
  Rng rng(seed);
  TestCube c;
  const int nd = 1 + static_cast<int>(rng.Uniform(3));  // 1..3 dims
  std::vector<Dimension> dims;
  for (int d = 0; d < nd; ++d) {
    const int hierarchy = static_cast<int>(rng.Uniform(4));  // 0..3 levels
    const int64_t card0 = 1 + static_cast<int64_t>(rng.Uniform(3));
    std::vector<std::string> names;
    for (int l = 0; l <= hierarchy; ++l) {
      std::string name = "l";
      name += std::to_string(l);
      names.push_back(std::move(name));
    }
    // Random monotone surjective parent maps (non-uniform fanouts 1..3).
    std::vector<std::vector<int32_t>> parent_maps;
    int64_t card = card0;
    for (int l = 0; l < hierarchy; ++l) {
      std::vector<int32_t> pm;
      for (int32_t parent = 0; parent < card; ++parent) {
        const int fanout = 1 + static_cast<int>(rng.Uniform(3));
        for (int k = 0; k < fanout; ++k) pm.push_back(parent);
      }
      card = static_cast<int64_t>(pm.size());
      parent_maps.push_back(std::move(pm));
    }
    std::string dim_name = "d";
    dim_name += std::to_string(d);
    dims.push_back(Dimension(std::move(dim_name), std::move(names), card0,
                             std::move(parent_maps)));
  }
  c.schema = std::make_unique<Schema>(std::move(dims));
  c.lattice = std::make_unique<Lattice>(c.schema.get());

  // Hierarchy-aligned random chunk boundaries, built top-down: level l+1
  // inherits the child images of level l's boundaries plus random extras.
  for (int d = 0; d < c.schema->num_dims(); ++d) {
    const Dimension& dim = c.schema->dimension(d);
    std::vector<std::vector<int32_t>> begins(
        static_cast<size_t>(dim.num_levels()));
    // Level 0: random subset of possible boundaries.
    begins[0].push_back(0);
    for (int32_t v = 1; v < dim.cardinality(0); ++v) {
      if (rng.Bernoulli(0.5)) begins[0].push_back(v);
    }
    for (int l = 1; l < dim.num_levels(); ++l) {
      std::vector<bool> is_begin(static_cast<size_t>(dim.cardinality(l)),
                                 false);
      // Mandatory: images of the previous level's boundaries.
      for (int32_t b : begins[static_cast<size_t>(l - 1)]) {
        is_begin[static_cast<size_t>(dim.ChildRange(l - 1, b).first)] = true;
      }
      // Optional extra boundaries.
      for (int32_t v = 1; v < dim.cardinality(l); ++v) {
        if (rng.Bernoulli(0.3)) is_begin[static_cast<size_t>(v)] = true;
      }
      is_begin[0] = true;
      for (int32_t v = 0; v < dim.cardinality(l); ++v) {
        if (is_begin[static_cast<size_t>(v)]) {
          begins[static_cast<size_t>(l)].push_back(v);
        }
      }
    }
    c.layouts.push_back(
        std::make_unique<DimensionChunkLayout>(&dim, std::move(begins)));
  }
  std::vector<const DimensionChunkLayout*> ptrs;
  for (const auto& l : c.layouts) ptrs.push_back(l.get());
  c.grid = std::make_unique<ChunkGrid>(c.lattice.get(), std::move(ptrs));
  return c;
}

// Random base cells over the full base cross product, with `density` chance
// of each cell being present.
inline std::vector<Cell> RandomBaseCells(const TestCube& cube, double density,
                                         uint64_t seed) {
  Rng rng(seed);
  const Schema& schema = *cube.schema;
  const int nd = schema.num_dims();
  std::vector<Cell> cells;
  std::array<int32_t, kMaxDims> cur{};
  const LevelVector& base = schema.base_level();
  // Iterate the full cross product of base values.
  while (true) {
    if (rng.Bernoulli(density)) {
      Cell c;
      c.values = cur;
      InitCellAggregates(c, static_cast<double>(rng.Uniform(1000)) + 1.0);
      cells.push_back(c);
    }
    int d = nd - 1;
    while (d >= 0) {
      if (++cur[static_cast<size_t>(d)] <
          schema.dimension(d).cardinality(base[d])) {
        break;
      }
      cur[static_cast<size_t>(d)] = 0;
      --d;
    }
    if (d < 0) break;
  }
  return cells;
}

// Owned copies of shared chunks, for tests that canonicalize or compare a
// query answer (canonicalization sorts cells in place).
inline std::vector<ChunkData> CopyChunks(const std::vector<ChunkRef>& refs) {
  std::vector<ChunkData> out;
  out.reserve(refs.size());
  for (const ChunkRef& ref : refs) out.push_back(*ref);
  return out;
}

// Wraps owned chunks as shared refs (the form caches store and hand out).
inline std::vector<ChunkRef> ShareChunks(std::vector<ChunkData> chunks) {
  std::vector<ChunkRef> out;
  out.reserve(chunks.size());
  for (ChunkData& data : chunks) {
    out.push_back(std::make_shared<const ChunkData>(std::move(data)));
  }
  return out;
}

}  // namespace aac

#endif  // AAC_TESTS_TEST_UTIL_H_
