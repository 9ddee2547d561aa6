#include "storage/measured_size_model.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <span>
#include <thread>

#include "util/check.h"

namespace aac {

namespace {

// Mixed-radix strides over the cardinalities of one group-by level:
// dimension 0 is the most significant digit, so the order of cell ids is
// the lexicographic order of value ids.
std::array<int64_t, kMaxDims> CellIdStrides(const Schema& schema,
                                            const LevelVector& lv) {
  std::array<int64_t, kMaxDims> strides{};
  int64_t cells = 1;
  for (int d = schema.num_dims() - 1; d >= 0; --d) {
    strides[static_cast<size_t>(d)] = cells;
    cells *= schema.dimension(d).cardinality(lv[d]);
  }
  return strides;
}

// Level sum of a group-by: its layer in the lattice. A node's parents are
// exactly one layer above it.
int LevelSum(const LevelVector& lv) {
  int sum = 0;
  for (int d = 0; d < lv.size(); ++d) sum += lv[d];
  return sum;
}

// Measures every group-by by rolling up the lattice from the base, writing
// each group-by's distinct-cell count to `gb_tuples` and its per-chunk
// counts to `chunk_tuples` from `offsets[gb]`. `Id` holds any cell id of
// the base level, so of every level (no level has more cells).
template <typename Id>
void RollUpLattice(const ChunkGrid& grid, const FactTable& table,
                   const std::vector<int64_t>& offsets,
                   std::vector<int32_t>* chunk_tuples,
                   std::vector<int64_t>* gb_tuples) {
  const Lattice& lattice = grid.lattice();
  const Schema& schema = grid.schema();
  const int nd = schema.num_dims();
  const GroupById base = lattice.base_id();

  // The sorted distinct cell ids of each group-by, kept until every child
  // that rolls it up has read them.
  std::vector<std::vector<Id>> ids(
      static_cast<size_t>(lattice.num_groupbys()));

  // The base group-by (the one node of the top layer): the fact table
  // already holds one tuple per distinct cell, clustered by base chunk.
  {
    const std::array<int64_t, kMaxDims> strides =
        CellIdStrides(schema, lattice.LevelOf(base));
    std::vector<Id>& base_ids = ids[static_cast<size_t>(base)];
    base_ids.reserve(static_cast<size_t>(table.num_tuples()));
    for (const Cell& t : table.tuples()) {
      int64_t id = 0;
      for (int d = 0; d < nd; ++d) {
        id += t.values[static_cast<size_t>(d)] *
              strides[static_cast<size_t>(d)];
      }
      base_ids.push_back(static_cast<Id>(id));
    }
    std::sort(base_ids.begin(), base_ids.end());
    for (ChunkId c = 0; c < table.num_chunks(); ++c) {
      (*chunk_tuples)[static_cast<size_t>(offsets[static_cast<size_t>(base)] +
                                          c)] =
          static_cast<int32_t>(table.ChunkTupleCount(c));
    }
    (*gb_tuples)[static_cast<size_t>(base)] = table.num_tuples();
  }

  // The parent a group-by rolls up: the one with the fewest distinct cells,
  // ties to the first in Lattice::Parents order.
  auto smallest_parent = [&](GroupById gb) {
    GroupById parent = lattice.Parents(gb).front();
    for (GroupById p : lattice.Parents(gb)) {
      if ((*gb_tuples)[static_cast<size_t>(p)] <
          (*gb_tuples)[static_cast<size_t>(parent)]) {
        parent = p;
      }
    }
    return parent;
  };
  // Per group-by: how many children of the running layer have yet to read
  // its ids. The child that drops the count to zero frees them.
  std::vector<std::atomic<int>> readers(
      static_cast<size_t>(lattice.num_groupbys()));

  // The parent differs on one dimension k, one level more detailed, and the
  // child's cells are the image of the parent's under k's ancestor map.
  // Writes only `gb`'s own ids and slices of the count arrays.
  auto measure = [&](GroupById gb) {
    const GroupById parent = smallest_parent(gb);
    const LevelVector& lv = lattice.LevelOf(gb);
    const LevelVector& plv = lattice.LevelOf(parent);
    int k = 0;
    while (lv[k] == plv[k]) ++k;
    const std::array<int64_t, kMaxDims> strides = CellIdStrides(schema, lv);
    // Cell id = (high digits) * span + value_k * inner + (low digits); the
    // low digits' strides are the same at both levels.
    const Id inner = static_cast<Id>(strides[static_cast<size_t>(k)]);
    const Id parent_span =
        inner * static_cast<Id>(schema.dimension(k).cardinality(plv[k]));
    const Id child_span =
        inner * static_cast<Id>(schema.dimension(k).cardinality(lv[k]));
    const std::span<const int32_t> ancestor =
        schema.dimension(k).AncestorTable(plv[k], lv[k]);

    std::vector<Id>& from = ids[static_cast<size_t>(parent)];
    std::vector<Id> cells(from.size());
    for (size_t i = 0; i < from.size(); ++i) {
      const Id rest = from[i] % parent_span;
      cells[i] = from[i] / parent_span * child_span +
                 static_cast<Id>(ancestor[static_cast<size_t>(rest / inner)]) *
                     inner +
                 rest % inner;
    }
    if (--readers[static_cast<size_t>(parent)] == 0) {
      std::vector<Id>().swap(from);
    }
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());

    int32_t* counts = chunk_tuples->data() + offsets[static_cast<size_t>(gb)];
    std::array<int32_t, kMaxDims> values{};
    for (Id id : cells) {
      for (int d = 0; d < nd; ++d) {
        const Id stride = static_cast<Id>(strides[static_cast<size_t>(d)]);
        values[static_cast<size_t>(d)] = static_cast<int32_t>(id / stride);
        id %= stride;
      }
      ++counts[grid.ChunkOfCell(gb, values.data())];
    }
    (*gb_tuples)[static_cast<size_t>(gb)] = static_cast<int64_t>(cells.size());
    cells.shrink_to_fit();
    ids[static_cast<size_t>(gb)] = std::move(cells);
  };

  // One layer (level sum) at a time, detailed to aggregated, so every
  // parent is measured before its children. The group-bys of a layer are
  // independent and run on worker threads; the join orders their writes
  // before the next layer reads them.
  std::vector<std::vector<GroupById>> layers(
      static_cast<size_t>(LevelSum(lattice.LevelOf(base))) + 1);
  for (GroupById gb : lattice.TopoDetailedFirst()) {
    layers[static_cast<size_t>(LevelSum(lattice.LevelOf(gb)))].push_back(gb);
  }
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  for (size_t layer = layers.size() - 1; layer-- > 0;) {
    const std::vector<GroupById>& gbs = layers[layer];
    for (GroupById gb : gbs) {
      ++readers[static_cast<size_t>(smallest_parent(gb))];
    }
    // Ids no child rolls up are done with now.
    for (GroupById p : layers[layer + 1]) {
      if (readers[static_cast<size_t>(p)] == 0) {
        std::vector<Id>().swap(ids[static_cast<size_t>(p)]);
      }
    }
    std::atomic<size_t> next{0};
    auto drain = [&] {
      for (size_t i = next++; i < gbs.size(); i = next++) measure(gbs[i]);
    };
    std::vector<std::jthread> workers;
    for (size_t w = 1; w < std::min(hardware, gbs.size()); ++w) {
      workers.emplace_back(drain);
    }
    drain();
  }  // each layer's workers join at the end of its iteration
}

}  // namespace

MeasuredChunkSizeModel::MeasuredChunkSizeModel(const ChunkGrid* grid,
                                               const FactTable* table,
                                               int64_t bytes_per_tuple)
    : ChunkSizeModel(grid, table->num_tuples(), bytes_per_tuple) {
  const Lattice& lattice = grid->lattice();
  offsets_.assign(static_cast<size_t>(lattice.num_groupbys()) + 1, 0);
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    offsets_[static_cast<size_t>(gb) + 1] =
        offsets_[static_cast<size_t>(gb)] + grid->NumChunks(gb);
  }
  chunk_tuples_.assign(static_cast<size_t>(offsets_.back()), 0);
  gb_tuples_.assign(static_cast<size_t>(lattice.num_groupbys()), 0);

  // 32-bit ids halve the roll-up's memory whenever every base cell can be
  // numbered in them.
  const Schema& schema = grid->schema();
  if (schema.NumCells(schema.base_level()) <=
      int64_t{std::numeric_limits<uint32_t>::max()}) {
    RollUpLattice<uint32_t>(*grid, *table, offsets_, &chunk_tuples_,
                            &gb_tuples_);
  } else {
    RollUpLattice<uint64_t>(*grid, *table, offsets_, &chunk_tuples_,
                            &gb_tuples_);
  }
}

double MeasuredChunkSizeModel::ExpectedChunkTuples(GroupById gb,
                                                   ChunkId chunk) const {
  AAC_DCHECK(chunk >= 0 && chunk < grid()->NumChunks(gb));
  return static_cast<double>(
      chunk_tuples_[static_cast<size_t>(offsets_[static_cast<size_t>(gb)] +
                                        chunk)]);
}

double MeasuredChunkSizeModel::ExpectedGroupByTuples(GroupById gb) const {
  return static_cast<double>(gb_tuples_[static_cast<size_t>(gb)]);
}

}  // namespace aac
