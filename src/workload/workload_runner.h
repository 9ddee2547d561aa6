#ifndef AAC_WORKLOAD_WORKLOAD_RUNNER_H_
#define AAC_WORKLOAD_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/query_engine.h"
#include "workload/query_stream.h"

namespace aac {

/// Aggregate outcome of running a query stream through an engine — the
/// numbers the paper's Figures 7–10 and Table 4 are built from.
struct WorkloadTotals {
  int64_t queries = 0;
  int64_t complete_hits = 0;

  int64_t chunks_requested = 0;
  int64_t chunks_direct = 0;
  int64_t chunks_aggregated = 0;
  int64_t chunks_backend = 0;
  int64_t chunks_coalesced = 0;  // backend chunks served by another
                                 // query's in-flight fetch
  int64_t chunks_unavailable = 0;

  // Tiered-cache outcomes (all zero without a WarmTier).
  int64_t chunks_warm = 0;  // promoted from the compressed warm tier
  int64_t chunks_disk = 0;  // promoted from the disk spill tier
  double decode_ms = 0.0;   // warm/disk blob decode time

  // Fault-path outcomes (all zero against a healthy backend).
  int64_t degraded_complete = 0;  // fully answered while backend was down
  int64_t degraded_partial = 0;   // some chunks unavailable
  int64_t backend_attempts = 0;
  int64_t backend_retries = 0;
  int64_t breaker_rejected = 0;   // queries that never reached the backend

  // Semantic result-cache outcomes (all zero without a ResultCache).
  int64_t result_hits = 0;      // queries answered wholesale by the layer
  int64_t result_misses = 0;    // probed, not found
  int64_t result_admitted = 0;  // finished answers admitted (cost-based)

  // Overload-path outcomes (all zero without deadlines/admission control).
  int64_t shedded = 0;            // refused by admission control
  int64_t deadline_exceeded = 0;  // deadline or cancel fired mid-query
  int64_t salvaged_chunks = 0;    // chunks a killed query still cached
  int64_t cancel_checks = 0;      // cancellation checkpoints evaluated
  int64_t sf_detached = 0;        // single-flight waits dropped on deadline
  double queue_wait_ms = 0.0;     // total admission-queue wait

  double lookup_ms = 0.0;
  double aggregation_ms = 0.0;
  double fold_ms = 0.0;  // rollup-kernel time, a subset of aggregation_ms
  double backend_ms = 0.0;
  double update_ms = 0.0;

  // The same sums restricted to complete-hit queries (Figure 10's bars).
  int64_t hit_queries = 0;
  double hit_lookup_ms = 0.0;
  double hit_aggregation_ms = 0.0;
  double hit_update_ms = 0.0;

  double TotalMs() const {
    return lookup_ms + aggregation_ms + backend_ms + update_ms;
  }
  double AvgQueryMs() const {
    return queries == 0 ? 0.0 : TotalMs() / static_cast<double>(queries);
  }
  double CompleteHitPercent() const {
    return queries == 0 ? 0.0
                        : 100.0 * static_cast<double>(complete_hits) /
                              static_cast<double>(queries);
  }
  /// Fraction of result-cache probes that hit.
  double ResultHitPercent() const {
    const int64_t probes = result_hits + result_misses;
    return probes == 0 ? 0.0
                       : 100.0 * static_cast<double>(result_hits) /
                             static_cast<double>(probes);
  }
  /// Fraction of queries answered in degraded mode (complete or partial).
  double DegradedPercent() const {
    return queries == 0 ? 0.0
                        : 100.0 *
                              static_cast<double>(degraded_complete +
                                                  degraded_partial) /
                              static_cast<double>(queries);
  }
  double AvgHitMs() const {
    return hit_queries == 0 ? 0.0
                            : (hit_lookup_ms + hit_aggregation_ms +
                               hit_update_ms) /
                                  static_cast<double>(hit_queries);
  }
};

/// Folds one query's stats into `totals`. Shared by the serial and
/// parallel runners so both produce identically-defined totals.
void AccumulateStats(const QueryStats& stats, WorkloadTotals* totals);

/// Runs `stream` through `engine`, accumulating totals; per-query stats are
/// appended to `per_query` when non-null.
WorkloadTotals RunWorkload(QueryEngine& engine,
                           const std::vector<QueryStreamEntry>& stream,
                           std::vector<QueryStats>* per_query = nullptr);

}  // namespace aac

#endif  // AAC_WORKLOAD_WORKLOAD_RUNNER_H_
