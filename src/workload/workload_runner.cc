#include "workload/workload_runner.h"

#include <algorithm>

namespace aac {

void AccumulateStats(const QueryStats& stats, WorkloadTotals* totals) {
  ++totals->queries;
  totals->complete_hits += stats.complete_hit ? 1 : 0;
  totals->chunks_requested += stats.chunks_requested;
  totals->chunks_direct += stats.chunks_direct;
  totals->chunks_aggregated += stats.chunks_aggregated;
  totals->chunks_backend += stats.chunks_backend;
  totals->chunks_coalesced += stats.chunks_coalesced;
  totals->chunks_unavailable += stats.chunks_unavailable;
  totals->chunks_warm += stats.chunks_warm;
  totals->chunks_disk += stats.chunks_disk;
  totals->decode_ms += stats.decode_ms;
  totals->degraded_complete +=
      stats.status == ResultStatus::kDegradedComplete ? 1 : 0;
  totals->degraded_partial +=
      stats.status == ResultStatus::kDegradedPartial ? 1 : 0;
  totals->backend_attempts += stats.backend_attempts;
  totals->backend_retries += stats.backend_retries;
  totals->breaker_rejected += stats.backend_rejected() ? 1 : 0;
  if (stats.result_cache_probed) {
    totals->result_hits += stats.result_cache_hit ? 1 : 0;
    totals->result_misses += stats.result_cache_hit ? 0 : 1;
  }
  totals->result_admitted += stats.result_cache_admitted ? 1 : 0;
  totals->shedded += stats.status == ResultStatus::kShedded ? 1 : 0;
  totals->deadline_exceeded +=
      stats.status == ResultStatus::kDeadlineExceeded ? 1 : 0;
  totals->salvaged_chunks += stats.salvaged_chunks;
  totals->cancel_checks += stats.cancel_checks;
  totals->sf_detached += stats.sf_detached;
  totals->queue_wait_ms += stats.queue_wait_ms;
  totals->lookup_ms += stats.lookup_ms;
  totals->aggregation_ms += stats.aggregation_ms;
  totals->fold_ms += static_cast<double>(stats.fold_ns) / 1e6;
  totals->backend_ms += stats.backend_ms;
  totals->update_ms += stats.update_ms;
  if (stats.complete_hit) {
    ++totals->hit_queries;
    totals->hit_lookup_ms += stats.lookup_ms;
    totals->hit_aggregation_ms += stats.aggregation_ms;
    totals->hit_update_ms += stats.update_ms;
  }
}

WorkloadTotals RunWorkload(QueryEngine& engine,
                           const std::vector<QueryStreamEntry>& stream,
                           std::vector<QueryStats>* per_query) {
  WorkloadTotals totals;
  for (const QueryStreamEntry& entry : stream) {
    QueryStats stats;
    engine.ExecuteQuery(entry.query, &stats);
    AccumulateStats(stats, &totals);
    if (per_query != nullptr) per_query->push_back(stats);
  }
  return totals;
}

}  // namespace aac
