#include "core/executor.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "util/check.h"

namespace aac {

PlanExecutor::PlanExecutor(const ChunkGrid* grid, ChunkCache* cache,
                           Aggregator* aggregator)
    : grid_(grid), cache_(cache), aggregator_(aggregator) {
  AAC_CHECK(grid != nullptr);
  AAC_CHECK(cache != nullptr);
  AAC_CHECK(aggregator != nullptr);
}

ExecutionResult PlanExecutor::Execute(const PlanNode& plan) {
  ExecutionResult result;
  const int64_t before = aggregator_->tuples_processed();
  const int64_t fold_before = aggregator_->fold_nanos();
  std::vector<CacheKey> pinned;
  bool ok = true;
  ChunkData out = ExecuteNode(plan, &result, &pinned, &ok);
  // Pins are held until the whole plan is materialized, then released in
  // one sweep — including the unwind path when a leaf went missing.
  for (const CacheKey& key : pinned) cache_->Unpin(key);
  result.tuples_aggregated = aggregator_->tuples_processed() - before;
  result.fold_ns = aggregator_->fold_nanos() - fold_before;
  result.ok = ok;
  if (ok) result.data = std::move(out);
  return result;
}

ChunkData PlanExecutor::ExecuteNode(const PlanNode& node,
                                    ExecutionResult* result,
                                    std::vector<CacheKey>* pinned, bool* ok) {
  if (node.cached) {
    // Root-level cached chunk: hand back a copy (the engine reads direct
    // chunks itself and never executes such a plan). A miss here means the
    // plan went stale since lookup — report failure instead of aborting.
    ChunkRef cached = cache_->GetRef(node.key);
    if (cached == nullptr) {
      *ok = false;
      return {};
    }
    result->cached_inputs.push_back(node.key);
    return *cached;
  }

  // Materialize inputs: cached ones are read in place (pinned), computed
  // ones recurse. std::deque keeps owned chunk addresses stable.
  std::deque<ChunkData> owned;
  std::vector<const ChunkData*> sources;
  sources.reserve(node.inputs.size());
  for (const auto& input : node.inputs) {
    if (input->cached) {
      const ChunkData* cached = cache_->GetPinned(input->key);
      if (cached == nullptr) {
        *ok = false;
        return {};
      }
      pinned->push_back(input->key);
      result->cached_inputs.push_back(input->key);
      sources.push_back(cached);
    } else {
      owned.push_back(ExecuteNode(*input, result, pinned, ok));
      if (!*ok) return {};
      sources.push_back(&owned.back());
    }
  }
  ChunkData out = aggregator_->Aggregate(node.source_gb, sources, node.key.gb,
                                         node.key.chunk);
  if (aggregator_->last_fold_cancelled()) {
    result->cancelled = true;
    *ok = false;
    return {};
  }
  return out;
}

}  // namespace aac
