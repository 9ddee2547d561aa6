#include "storage/fact_table.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace aac {

FactTable::FactTable(const ChunkGrid* grid, std::vector<Cell> cells)
    : grid_(grid), tuples_(std::move(cells)) {
  AAC_CHECK(grid_ != nullptr);
  base_gb_ = grid_->lattice().base_id();
  Rebuild();
}

std::vector<ChunkId> FactTable::ApplyInserts(std::vector<Cell> cells) {
  const CellValueLess less{grid_->schema().num_dims()};
  auto same = [&less](const Cell& a, const Cell& b) {
    return !less(a, b) && !less(b, a);
  };

  // The batch in clustered order (by base chunk, then by value), with the
  // cells it repeats combined.
  struct Added {
    ChunkId chunk;
    int64_t position;  // insertion point among the existing tuples
    Cell cell;
  };
  std::vector<Added> added;
  added.reserve(cells.size());
  for (const Cell& c : cells) {
    added.push_back({grid_->ChunkOfCell(base_gb_, c.values.data()), 0, c});
  }
  std::sort(added.begin(), added.end(),
            [&less](const Added& a, const Added& b) {
              return a.chunk != b.chunk ? a.chunk < b.chunk
                                        : less(a.cell, b.cell);
            });
  size_t distinct = 0;
  for (const Added& a : added) {
    if (distinct > 0 && same(added[distinct - 1].cell, a.cell)) {
      MergeCellAggregates(added[distinct - 1].cell, a.cell);
    } else {
      added[distinct++] = a;
    }
  }
  added.resize(distinct);

  // Fold cells the table already holds into their tuple; keep the rest,
  // each with its insertion point in its chunk's value-sorted slice.
  std::vector<ChunkId> affected;
  size_t fresh = 0;
  for (const Added& a : added) {
    if (affected.empty() || affected.back() != a.chunk) {
      affected.push_back(a.chunk);
    }
    const auto begin =
        tuples_.begin() + chunk_offsets_[static_cast<size_t>(a.chunk)];
    const auto end =
        tuples_.begin() + chunk_offsets_[static_cast<size_t>(a.chunk) + 1];
    const auto it = std::lower_bound(begin, end, a.cell, less);
    if (it != end && same(*it, a.cell)) {
      MergeCellAggregates(*it, a.cell);
    } else {
      added[fresh] = a;
      added[fresh++].position = it - tuples_.begin();
    }
  }
  added.resize(fresh);

  // Merge the new cells in from the back, moving each run of existing
  // tuples once.
  int64_t src = num_tuples();
  tuples_.resize(tuples_.size() + added.size());
  int64_t dst = num_tuples();
  for (auto a = added.rbegin(); a != added.rend(); ++a) {
    std::move_backward(tuples_.begin() + a->position, tuples_.begin() + src,
                       tuples_.begin() + dst);
    dst -= src - a->position;
    src = a->position;
    tuples_[static_cast<size_t>(--dst)] = a->cell;
  }
  // Every chunk boundary shifts by the new cells of the chunks before it.
  size_t before = 0;
  for (size_t c = 0; c + 1 < chunk_offsets_.size(); ++c) {
    while (before < added.size() &&
           added[before].chunk <= static_cast<ChunkId>(c)) {
      ++before;
    }
    chunk_offsets_[c + 1] += static_cast<int64_t>(before);
  }
  return affected;
}

void FactTable::Rebuild() {
  const int nd = grid_->schema().num_dims();

  // Combine duplicate cells (one tuple per non-empty cell).
  std::sort(tuples_.begin(), tuples_.end(), CellValueLess{nd});
  size_t out = 0;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (out > 0 && !CellValueLess{nd}(tuples_[out - 1], tuples_[i]) &&
        !CellValueLess{nd}(tuples_[i], tuples_[out - 1])) {
      MergeCellAggregates(tuples_[out - 1], tuples_[i]);
    } else {
      tuples_[out++] = tuples_[i];
    }
  }
  tuples_.resize(out);

  // Cluster by base chunk number (stable within a chunk: value order).
  // Chunk numbers are precomputed once and the clustering is done with a
  // counting sort, so building a table of millions of tuples stays linear.
  const int64_t nchunks = grid_->NumChunks(base_gb_);
  std::vector<ChunkId> keys(tuples_.size());
  chunk_offsets_.assign(static_cast<size_t>(nchunks) + 1, 0);
  for (size_t i = 0; i < tuples_.size(); ++i) {
    keys[i] = grid_->ChunkOfCell(base_gb_, tuples_[i].values.data());
    ++chunk_offsets_[static_cast<size_t>(keys[i]) + 1];
  }
  for (size_t i = 1; i < chunk_offsets_.size(); ++i) {
    chunk_offsets_[i] += chunk_offsets_[i - 1];
  }
  std::vector<Cell> clustered(tuples_.size());
  std::vector<int64_t> next(chunk_offsets_.begin(), chunk_offsets_.end() - 1);
  for (size_t i = 0; i < tuples_.size(); ++i) {
    clustered[static_cast<size_t>(next[static_cast<size_t>(keys[i])]++)] =
        tuples_[i];
  }
  tuples_ = std::move(clustered);
}

int64_t FactTable::num_chunks() const { return grid_->NumChunks(base_gb_); }

std::span<const Cell> FactTable::ChunkSlice(ChunkId chunk) const {
  AAC_CHECK(chunk >= 0 && chunk < num_chunks());
  const int64_t begin = chunk_offsets_[static_cast<size_t>(chunk)];
  const int64_t end = chunk_offsets_[static_cast<size_t>(chunk) + 1];
  return std::span<const Cell>(tuples_.data() + begin,
                               static_cast<size_t>(end - begin));
}

int64_t FactTable::ChunkTupleCount(ChunkId chunk) const {
  AAC_CHECK(chunk >= 0 && chunk < num_chunks());
  return chunk_offsets_[static_cast<size_t>(chunk) + 1] -
         chunk_offsets_[static_cast<size_t>(chunk)];
}

}  // namespace aac
