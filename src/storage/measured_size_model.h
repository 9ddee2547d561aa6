#ifndef AAC_STORAGE_MEASURED_SIZE_MODEL_H_
#define AAC_STORAGE_MEASURED_SIZE_MODEL_H_

#include <cstdint>
#include <vector>

#include "chunks/chunk_size_model.h"
#include "storage/fact_table.h"

namespace aac {

/// Chunk-size model backed by *exact* per-chunk tuple counts, computed once
/// from the fact table for every chunk at every group-by level.
///
/// The analytic `ChunkSizeModel` assumes cells are occupied independently,
/// which under-predicts how fast aggregation collapses correlated data
/// (e.g. APB-1's per-month records collapse 24x at the month roll-up). The
/// cost-based strategies pick noticeably better paths with real sizes —
/// this is the "estimated group-by sizes" the paper cites from [SDN98],
/// done exactly.
///
/// Construction rolls the lattice up instead of re-reading the fact table
/// per group-by: a group-by's distinct cells are the image of any finer
/// group-by's distinct cells. The base group-by's cells are the fact
/// tuples; every other group-by maps the sorted cell ids of its parent with
/// the fewest distinct cells, then sorts, deduplicates and counts them per
/// chunk, and frees a parent's ids once its last such child has read them.
/// Layers (level sums) run from detailed to aggregated; the group-bys of
/// one layer are measured on `hardware_concurrency()` threads, each writing
/// only its own counts, and the layer's join orders those writes before the
/// next layer reads them.
class MeasuredChunkSizeModel : public ChunkSizeModel {
 public:
  /// `grid` and `table` must outlive the model.
  MeasuredChunkSizeModel(const ChunkGrid* grid, const FactTable* table,
                         int64_t bytes_per_tuple = 20);

  /// Exact distinct-cell count of the chunk.
  double ExpectedChunkTuples(GroupById gb, ChunkId chunk) const override;

  /// Exact distinct-cell count of the whole group-by.
  double ExpectedGroupByTuples(GroupById gb) const override;

 private:
  std::vector<int64_t> offsets_;       // per group-by, into chunk_tuples_
  std::vector<int32_t> chunk_tuples_;  // exact count per chunk
  std::vector<int64_t> gb_tuples_;     // exact count per group-by
};

}  // namespace aac

#endif  // AAC_STORAGE_MEASURED_SIZE_MODEL_H_
