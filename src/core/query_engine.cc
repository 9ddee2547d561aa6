#include "core/query_engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "cache/replacement.h"
#include "core/query_canon.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace aac {

const char* ResultStatusName(ResultStatus status) {
  switch (status) {
    case ResultStatus::kOk:
      return "ok";
    case ResultStatus::kDegradedComplete:
      return "degraded-complete";
    case ResultStatus::kDegradedPartial:
      return "degraded-partial";
    case ResultStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case ResultStatus::kShedded:
      return "shedded";
  }
  return "?";
}

const char* FetchAbortReasonName(FetchAbortReason reason) {
  switch (reason) {
    case FetchAbortReason::kNone:
      return "none";
    case FetchAbortReason::kBreakerOpen:
      return "breaker-open";
    case FetchAbortReason::kBreakerTripped:
      return "breaker-tripped";
    case FetchAbortReason::kAttemptsExhausted:
      return "attempts-exhausted";
    case FetchAbortReason::kRetryBudgetExhausted:
      return "retry-budget-exhausted";
    case FetchAbortReason::kDeadlineExceeded:
      return "deadline-exceeded";
    case FetchAbortReason::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

// First cause wins: a query that detached from a single-flight wait on
// deadline and then found the breaker open reports the deadline, not the
// breaker.
void NoteAbort(QueryStats& s, FetchAbortReason reason) {
  if (s.fetch_abort == FetchAbortReason::kNone) s.fetch_abort = reason;
}

FetchAbortReason AbortReasonFor(const ExecContext& ctx) {
  return ctx.cancel != nullptr && ctx.cancel->cancelled()
             ? FetchAbortReason::kCancelled
             : FetchAbortReason::kDeadlineExceeded;
}

}  // namespace

QueryEngine::QueryEngine(const ChunkGrid* grid, ChunkCache* cache,
                         LookupStrategy* strategy, Backend* backend,
                         const BenefitModel* benefit, SimClock* sim_clock,
                         Config config)
    : grid_(grid),
      cache_(cache),
      strategy_(strategy),
      backend_(backend),
      benefit_(benefit),
      sim_clock_(sim_clock),
      config_(config),
      aggregator_(grid),
      executor_(grid, cache, &aggregator_),
      retry_(config.retry) {
  AAC_CHECK(grid != nullptr);
  AAC_CHECK(cache != nullptr);
  AAC_CHECK(strategy != nullptr);
  AAC_CHECK(backend != nullptr);
  AAC_CHECK(benefit != nullptr);
  AAC_CHECK(sim_clock != nullptr);
  if (config.circuit_breaker) {
    breaker_ = std::make_unique<CircuitBreaker>(config.breaker, sim_clock);
  }
}

int64_t QueryPlan::Count(ChunkRoute route) const {
  return std::count_if(
      chunks.begin(), chunks.end(),
      [route](const RoutedChunk& c) { return c.route == route; });
}

QueryPlan QueryEngine::Plan(GroupById gb, const std::vector<ChunkId>& chunks) {
  QueryPlan plan;
  // Degraded mode: with the breaker not closed, the backend is presumed
  // unreachable — every cache-computable chunk must be answered from the
  // cache, so the cost-based bypass (moot without a backend) is suspended.
  CircuitBreaker* breaker = circuit_breaker();
  plan.backend_trusted =
      breaker == nullptr || breaker->state() == BreakerState::kClosed;

  // Probe the strategy for every chunk.
  plan.chunks.reserve(chunks.size());
  bool backend_needed = false;
  for (ChunkId chunk : chunks) {
    std::unique_ptr<PlanNode> node = strategy_->FindPlan(gb, chunk);
    ChunkRoute route = ChunkRoute::kMissing;
    if (node == nullptr) {
      backend_needed = true;
    } else {
      route = node->cached ? ChunkRoute::kDirect : ChunkRoute::kAggregate;
    }
    plan.chunks.push_back({chunk, route, std::move(node)});
  }

  // Cost-based bypass (paper Section 5.2): a computable chunk whose
  // estimated aggregation time exceeds the backend's marginal cost joins
  // the backend query instead. The per-query fixed overhead is charged to
  // the first bypassed chunk only when no chunk is missing anyway.
  if (config_.cost_based_bypass && plan.backend_trusted) {
    for (QueryPlan::RoutedChunk& c : plan.chunks) {
      if (c.route != ChunkRoute::kAggregate) continue;
      const double cache_ns =
          c.node->estimated_cost * config_.cache_aggregation_ns_per_tuple;
      double backend_ns = static_cast<double>(
          backend_->EstimateMarginalChunkCostNanos(gb, c.chunk));
      if (!backend_needed) {
        backend_ns += static_cast<double>(
            backend_->cost_model().fixed_query_overhead_ns);
      }
      if (backend_ns < cache_ns) {
        c.route = ChunkRoute::kBypassed;
        backend_needed = true;
      }
    }
  }
  return plan;
}

std::string QueryEngine::ExplainQuery(const Query& query) {
  const GroupById gb = grid_->lattice().IdOf(query.level);
  const std::vector<ChunkId> chunks = ChunksForQuery(*grid_, query);
  std::string out = "query ";
  out += query.ToString(grid_->schema());
  out += " -> ";
  out += std::to_string(chunks.size());
  out += " chunk(s) at ";
  out += query.level.ToString();
  out += " [strategy: ";
  out += strategy_->name();
  out += "]";
  // Execution probes the result cache before planning, and a hit does no
  // chunk work at all — so neither does EXPLAIN.
  if (result_cache_ != nullptr &&
      result_cache_->Contains(CanonicalResultKey(grid_->schema(), query))) {
    out += "\n  result cache hit -> whole answer, no chunk work\n";
    return out;
  }
  const QueryPlan plan = Plan(gb, chunks);
  if (!plan.backend_trusted) {
    out += " [breaker: ";
    out += BreakerStateName(circuit_breaker()->state());
    out += " — cache-only]";
  }
  out += "\n";
  // Bypassed and missing chunks go to the warm tier first (execution
  // probes it for every such chunk, breaker open or not), then the backend.
  auto serving_tier = [&](ChunkId chunk) {
    if (warm_tier_ != nullptr && warm_tier_->Contains(CacheKey{gb, chunk})) {
      return "warm tier (promote)\n";
    }
    return plan.backend_trusted ? "backend\n" : "UNAVAILABLE\n";
  };
  for (const QueryPlan::RoutedChunk& c : plan.chunks) {
    out += "  chunk ";
    out += std::to_string(c.chunk);
    out += ": ";
    switch (c.route) {
      case ChunkRoute::kDirect:
        out += "direct cache hit\n";
        break;
      case ChunkRoute::kAggregate:
        out += "aggregate ";
        out += std::to_string(c.node->LeafCount());
        out += " cached chunk(s), est ";
        out += std::to_string(static_cast<int64_t>(c.node->estimated_cost));
        out += " tuples:\n";
        out += c.node->ToString(grid_->lattice(), /*indent=*/2);
        break;
      case ChunkRoute::kBypassed:
        out += "computable (est ";
        out += std::to_string(static_cast<int64_t>(c.node->estimated_cost));
        out += " tuples) but BYPASSED -> ";
        out += serving_tier(c.chunk);
        break;
      case ChunkRoute::kMissing:
        out += "MISS -> ";
        out += serving_tier(c.chunk);
        break;
    }
  }
  return out;
}

std::vector<ChunkId> QueryEngine::FetchWithRetry(GroupById gb,
                                                 std::vector<ChunkId> pending,
                                                 std::vector<ChunkRef>* fetched,
                                                 ExecContext* ctx,
                                                 QueryStats* stats) {
  QueryStats& s = *stats;
  if (pending.empty()) return pending;
  CircuitBreaker* breaker = circuit_breaker();
  if (breaker != nullptr && !breaker->AllowRequest()) {
    NoteAbort(s, FetchAbortReason::kBreakerOpen);
    return pending;
  }
  // Simulated nanoseconds THIS query's calls and backoffs charged. The
  // shared SimClock interleaves charges from every concurrent query, so
  // deadline checks and the backend_ms attribution use this local tally —
  // a clock delta would absorb other threads' charges and double-count.
  int64_t spent = 0;
  int attempts = 0;
  while (!pending.empty()) {
    // Deadline checkpoint before paying for another attempt: a query whose
    // budget is gone resolves now instead of issuing a doomed fetch.
    ++s.cancel_checks;
    if (ctx->ShouldAbort()) {
      NoteAbort(s, AbortReasonFor(*ctx));
      break;
    }
    ++attempts;
    ++s.backend_attempts;
    BackendResult result = backend_->ExecuteChunkQuery(gb, pending);
    spent += result.charged_nanos;
    ctx->deadline.ChargeSimulated(result.charged_nanos);
    if (result.ok()) {
      if (breaker != nullptr) breaker->RecordSuccess();
      for (ChunkData& data : result.chunks) {
        auto it = std::find(pending.begin(), pending.end(), data.chunk);
        AAC_CHECK(it != pending.end());
        pending.erase(it);
        fetched->push_back(std::make_shared<const ChunkData>(std::move(data)));
      }
      if (pending.empty()) break;
      // Partial result: the backend responded, so re-ask for the remainder
      // immediately — no backoff, but still under the attempt/deadline caps.
      if (!retry_.AllowRetry(attempts, spent)) {
        NoteAbort(s, attempts >= retry_.config().max_attempts
                         ? FetchAbortReason::kAttemptsExhausted
                         : FetchAbortReason::kRetryBudgetExhausted);
        break;
      }
      continue;
    }
    if (breaker != nullptr) {
      breaker->RecordFailure();
      if (breaker->state() == BreakerState::kOpen) {
        // Tripped (or a half-open probe failed): stop hammering the
        // backend; the query degrades now, later queries serve cache-only
        // until the cooldown elapses.
        NoteAbort(s, FetchAbortReason::kBreakerTripped);
        break;
      }
    }
    if (!retry_.AllowRetry(attempts, spent)) {
      NoteAbort(s, attempts >= retry_.config().max_attempts
                       ? FetchAbortReason::kAttemptsExhausted
                       : FetchAbortReason::kRetryBudgetExhausted);
      break;
    }
    // Backoff, clamped to whichever budget runs out first: the retry
    // policy's own time budget or the query's end-to-end deadline. A sleep
    // that would consume the entire remaining budget leaves no room for the
    // retry it precedes, so resolve immediately instead of napping up to
    // the deadline — the jitter draw is consumed either way, keeping the
    // seeded schedule deterministic.
    const int64_t retry_remaining =
        retry_.config().deadline_ns > 0
            ? retry_.config().deadline_ns - spent
            : std::numeric_limits<int64_t>::max();
    const int64_t query_remaining = ctx->deadline.remaining_ns();
    const int64_t remaining = std::min(retry_remaining, query_remaining);
    const int64_t backoff = retry_.ClampedBackoffNanos(attempts, remaining);
    if (backoff <= 0 || backoff >= remaining) {
      NoteAbort(s, query_remaining < retry_remaining
                       ? AbortReasonFor(*ctx)
                       : FetchAbortReason::kRetryBudgetExhausted);
      break;
    }
    sim_clock_->Charge(backoff);
    ctx->deadline.ChargeSimulated(backoff);
    spent += backoff;
  }
  s.backend_retries += attempts > 0 ? attempts - 1 : 0;
  s.backend_ms += static_cast<double>(spent) / 1e6;
  return pending;
}

// What the stages after Plan hand to each other for one query.
struct QueryEngine::ExecState {
  GroupById gb;
  bool backend_trusted;
  ExecContext* ctx;
  QueryStats& s;
  QueryResult& result;
  // Chunks the hot cache does not answer: misses, then bypassed chunks,
  // then computable chunks whose inputs vanished before the read.
  std::vector<ChunkId> missing{};
  // (benefit, cached-group) per aggregated chunk, consumed by the update
  // phase and the group-boost rule.
  struct ComputedInfo {
    size_t result_index;
    int64_t tuples;
    std::vector<CacheKey> group;
  };
  std::vector<ComputedInfo> computed{};
  bool aborted = false;
  std::vector<ChunkRef> backend_results{};    // fetched by this query
  std::vector<ChunkRef> coalesced_results{};  // another query's fetch
  int64_t admitted = 0;
  // Scan-tuple equivalents of this query's backend work, part of the
  // recompute cost a future result-cache hit would save.
  double backend_cost_tuples = 0.0;
};

QueryResult QueryEngine::ExecuteQuery(const Query& query, QueryStats* stats) {
  return ExecuteQuery(query, /*ctx=*/nullptr, stats);
}

QueryResult QueryEngine::ExecuteQuery(const Query& query, ExecContext* ctx,
                                      QueryStats* stats) {
  ExecContext unlimited;  // no deadline, no cancel token
  if (ctx == nullptr) ctx = &unlimited;
  QueryStats local;
  QueryStats& s = stats != nullptr ? *stats : local;
  s = QueryStats();
  QueryResult result;

  const GroupById gb = grid_->lattice().IdOf(query.level);
  const std::vector<ChunkId> chunks = ChunksForQuery(*grid_, query);
  s.chunks_requested = static_cast<int64_t>(chunks.size());

  // Dead on arrival — the deadline was burned waiting in an admission
  // queue, or the client is already gone: resolve immediately, typed,
  // without touching cache state.
  ++s.cancel_checks;
  if (ctx->ShouldAbort()) {
    result.unavailable = chunks;
    s.chunks_unavailable = static_cast<int64_t>(chunks.size());
    NoteAbort(s, AbortReasonFor(*ctx));
    s.status = ResultStatus::kDeadlineExceeded;
    result.status = s.status;
    return result;
  }

  // --- Probe: a canonical-key result-cache hit answers the whole query
  // from one stored fold, before any chunk-level work. The stored answer is
  // the same chunk-aligned representation a cold execution produces, so
  // RefineResult rows are bit-identical. ---
  ResultCacheKey result_key;
  if (result_cache_ != nullptr) {
    Stopwatch probe_timer;
    result_key = CanonicalResultKey(grid_->schema(), query);
    s.result_cache_probed = true;
    std::vector<ChunkRef> cached_answer;
    if (result_cache_->Probe(result_key, &cached_answer)) {
      s.result_cache_hit = true;
      s.complete_hit = true;
      s.lookup_ms = probe_timer.ElapsedMillis();
      s.status = ResultStatus::kOk;
      result.status = s.status;
      result.chunks = std::move(cached_answer);
      return result;
    }
    s.lookup_ms += probe_timer.ElapsedMillis();
  }

  // --- Plan, then the stages that carry it out (DESIGN.md §15). ---
  Stopwatch lookup_timer;
  const QueryPlan plan = Plan(gb, chunks);
  s.lookup_ms += lookup_timer.ElapsedMillis();

  ExecState st{gb, plan.backend_trusted, ctx, s, result};
  ReadAndFold(plan, &st);
  PromoteFromWarmTier(&st);
  Fetch(&st);
  AdmitChunks(&st);
  Resolve(&st);
  AdmitResult(result_key, &st);
  return result;
}

void QueryEngine::ReadAndFold(const QueryPlan& plan, ExecState* st) {
  QueryStats& s = st->s;
  ExecContext* ctx = st->ctx;
  // Misses first, then bypassed chunks: the order they reach the warm tier
  // and the backend query in.
  for (const QueryPlan::RoutedChunk& c : plan.chunks) {
    if (c.route == ChunkRoute::kMissing) st->missing.push_back(c.chunk);
  }
  for (const QueryPlan::RoutedChunk& c : plan.chunks) {
    if (c.route != ChunkRoute::kBypassed) continue;
    st->missing.push_back(c.chunk);
    ++s.chunks_bypassed;
  }

  // --- Aggregation phase: answer cached/computable chunks. ---
  Stopwatch agg_timer;
  std::vector<ChunkRef>& results = st->result.chunks;
  results.reserve(plan.chunks.size());
  // Arm cooperative cancellation for the fold kernels: checkpoints fire
  // every few thousand cells, and an aborted fold emits nothing (pins
  // released by the executor, arena wiped by the aggregator) — the chunks
  // that WERE emitted before the abort are bit-identical to an uncancelled
  // run's.
  bool& aborted = st->aborted;
  aggregator_.set_exec_context(ctx);
  const int64_t agg_checks_before = aggregator_.cancel_checks();
  for (const QueryPlan::RoutedChunk& c : plan.chunks) {
    if (c.route != ChunkRoute::kDirect && c.route != ChunkRoute::kAggregate) {
      continue;
    }
    const PlanNode& node = *c.node;
    if (!aborted) {
      ++s.cancel_checks;
      aborted = ctx->ShouldAbort();
    }
    if (aborted) {
      // Teardown: remaining chunks are neither computed nor fetched.
      st->result.unavailable.push_back(node.key.chunk);
      continue;
    }
    if (node.cached) {
      if (ChunkRef ref = cache_->GetRef(node.key)) {
        results.push_back(std::move(ref));
        ++s.chunks_direct;
      } else {
        // Plans are advisory under concurrency: the chunk was evicted
        // between the strategy probe and this read. Fall back to the
        // backend instead of aborting.
        st->missing.push_back(node.key.chunk);
      }
      continue;
    }
    ExecutionResult exec = executor_.Execute(node);
    if (exec.cancelled) {
      // Mid-fold abort. Do NOT reroute the chunk to the backend — the
      // query is being torn down, not rerouted.
      aborted = true;
      st->result.unavailable.push_back(node.key.chunk);
      continue;
    }
    if (!exec.ok) {
      // A planned input vanished mid-plan (concurrent eviction); the
      // executor released its pins and produced nothing for this chunk.
      st->missing.push_back(node.key.chunk);
      continue;
    }
    s.tuples_aggregated += exec.tuples_aggregated;
    s.fold_ns += exec.fold_ns;
    st->computed.push_back(ExecState::ComputedInfo{
        results.size(), exec.tuples_aggregated, std::move(exec.cached_inputs)});
    results.push_back(std::make_shared<const ChunkData>(std::move(exec.data)));
    ++s.chunks_aggregated;
  }
  aggregator_.set_exec_context(nullptr);
  s.cancel_checks += aggregator_.cancel_checks() - agg_checks_before;
  s.aggregation_ms = agg_timer.ElapsedMillis();
}

void QueryEngine::PromoteFromWarmTier(ExecState* st) {
  // --- Warm-tier probe: chunks neither cached nor computable may still
  // live compressed in the warm tier or its disk spill. Hits are decoded
  // (single-flighted, off the hot shard locks) and promoted back into the
  // hot cache. This phase deliberately runs even when the breaker is open:
  // a dark backend degrades to warm-tier-carried service, not
  // unavailability. ---
  if (warm_tier_ == nullptr || st->missing.empty() || st->aborted) return;
  QueryStats& s = st->s;
  Stopwatch promote_timer;
  std::vector<ChunkId> still_missing;
  still_missing.reserve(st->missing.size());
  for (ChunkId chunk : st->missing) {
    ++s.cancel_checks;
    if (st->aborted || st->ctx->ShouldAbort()) {
      // Teardown mid-phase: the rest stays missing and is reported
      // unavailable by Fetch's aborted branch.
      st->aborted = true;
      still_missing.push_back(chunk);
      continue;
    }
    WarmProbeResult probe;
    if (!warm_tier_->Probe(CacheKey{st->gb, chunk}, st->ctx, &probe)) {
      still_missing.push_back(chunk);
      continue;
    }
    s.decode_ms += static_cast<double>(probe.decode_ns) / 1e6;
    if (probe.from_disk) {
      ++s.chunks_disk;
    } else {
      ++s.chunks_warm;
    }
    // Promote: the hot insert's demotion hooks purge the warm/disk copy,
    // so the chunk is resident in exactly one tier again. The cache and
    // the answer share the decoded chunk.
    ChunkRef promoted =
        std::make_shared<const ChunkData>(std::move(probe.data));
    cache_->Insert(promoted, probe.info.benefit, probe.info.source);
    st->result.chunks.push_back(std::move(promoted));
  }
  st->missing = std::move(still_missing);
  s.aggregation_ms += promote_timer.ElapsedMillis();
}

void QueryEngine::Fetch(ExecState* st) {
  // --- Backend phase: one SQL query for all missing chunks, retried with
  // backoff on failure; what cannot be fetched degrades instead of
  // aborting. ---
  QueryStats& s = st->s;
  ExecContext* ctx = st->ctx;
  const GroupById gb = st->gb;
  std::vector<ChunkId>& missing = st->missing;
  std::vector<ChunkId>& unavailable = st->result.unavailable;
  s.complete_hit = missing.empty() && !st->aborted;
  if (st->aborted) {
    // Torn down before the backend phase: missing chunks are unanswerable.
    for (ChunkId chunk : missing) unavailable.push_back(chunk);
    missing.clear();
  }
  if (!missing.empty()) {
    if (single_flight_ == nullptr) {
      std::vector<ChunkId> failed = FetchWithRetry(
          gb, std::move(missing), &st->backend_results, ctx, &s);
      unavailable.insert(unavailable.end(), failed.begin(), failed.end());
    } else {
      // Single-flight: for each missing chunk either lead (this query will
      // fetch it and publish the result) or follow (another query's fetch
      // for the same chunk is in flight — wait for its result instead of
      // issuing a duplicate backend call).
      std::vector<ChunkId> lead;
      std::vector<std::pair<ChunkId, std::shared_ptr<SingleFlight::Slot>>>
          follow;
      for (ChunkId chunk : missing) {
        std::shared_ptr<SingleFlight::Slot> slot =
            single_flight_->JoinOrLead(CacheKey{gb, chunk});
        if (slot == nullptr) {
          lead.push_back(chunk);
        } else {
          follow.emplace_back(chunk, std::move(slot));
        }
      }
      // Fetch led chunks FIRST, then wait on followed ones: every led key
      // is published (or failed) before this thread blocks, so two queries
      // leading/following each other's chunks cannot deadlock.
      std::vector<ChunkId> failed =
          FetchWithRetry(gb, lead, &st->backend_results, ctx, &s);
      for (const ChunkRef& data : st->backend_results) {
        single_flight_->Publish(CacheKey{gb, data->chunk}, data);
      }
      for (ChunkId chunk : failed) {
        single_flight_->Fail(CacheKey{gb, chunk});
      }
      std::vector<ChunkId> retry_self;
      for (auto& [chunk, slot] : follow) {
        ChunkRef data;
        switch (single_flight_->AwaitWithDeadline(*slot, *ctx, &data)) {
          case SingleFlight::AwaitStatus::kOk:
            ++s.chunks_coalesced;
            st->coalesced_results.push_back(std::move(data));
            break;
          case SingleFlight::AwaitStatus::kLeaderFailed:
            // The leader failed; its failure may have been breaker- or
            // deadline-local, so try once ourselves before giving up.
            retry_self.push_back(chunk);
            break;
          case SingleFlight::AwaitStatus::kDeadline:
            // This follower's own deadline fired before the leader's fetch
            // landed: detach and give the chunk up. The leader keeps
            // fetching, so the cache still warms for later queries.
            ++s.sf_detached;
            NoteAbort(s, AbortReasonFor(*ctx));
            failed.push_back(chunk);
            break;
        }
      }
      std::vector<ChunkId> still_failed = FetchWithRetry(
          gb, std::move(retry_self), &st->backend_results, ctx, &s);
      failed.insert(failed.end(), still_failed.begin(), still_failed.end());
      unavailable.insert(unavailable.end(), failed.begin(), failed.end());
    }
    s.chunks_backend = static_cast<int64_t>(st->backend_results.size() +
                                            st->coalesced_results.size());
  }
  s.chunks_unavailable = static_cast<int64_t>(unavailable.size());
}

void QueryEngine::AdmitChunks(ExecState* st) {
  // --- Update phase: admit new chunks to the cache. This runs even for a
  // deadline-killed query — everything below was fully computed or fetched
  // before the abort, and trashing it would waste the work the query
  // already paid for (salvage: the aborted query still warms the cache for
  // its successors). ---
  const GroupById gb = st->gb;
  std::vector<ChunkRef>& results = st->result.chunks;
  Stopwatch update_timer;
  if (config_.cache_computed_results || config_.boost_groups) {
    for (const ExecState::ComputedInfo& info : st->computed) {
      const double benefit = benefit_->CacheComputedChunkBenefit(
          static_cast<double>(info.tuples));
      if (config_.cache_computed_results) {
        cache_->Insert(results[info.result_index], benefit,
                       ChunkSource::kCacheComputed);
        ++st->admitted;
      }
      if (config_.boost_groups) {
        const double boost = ReplacementPolicy::NormalizedWeight(benefit);
        for (const CacheKey& key : info.group) cache_->Boost(key, boost);
      }
    }
  }
  if (config_.cache_backend_results) {
    // Only chunks this query fetched itself are inserted: for coalesced
    // chunks the leading query already inserted them, and re-inserting
    // would just churn the replacement state.
    for (const ChunkRef& data : st->backend_results) {
      const double benefit = benefit_->BackendChunkBenefit(gb, data->chunk);
      cache_->Insert(data, benefit, ChunkSource::kBackend);
      ++st->admitted;
    }
  }
  st->s.update_ms = update_timer.ElapsedMillis();

  // The backend share of the result's recompute cost is tallied before the
  // fetched chunks are moved into the answer.
  if (result_cache_ != nullptr) {
    for (const ChunkRef& data : st->backend_results) {
      st->backend_cost_tuples +=
          benefit_->BackendRecomputeTuples(gb, data->chunk);
    }
    for (const ChunkRef& data : st->coalesced_results) {
      st->backend_cost_tuples +=
          benefit_->BackendRecomputeTuples(gb, data->chunk);
    }
  }

  for (ChunkRef& data : st->backend_results) {
    results.push_back(std::move(data));
  }
  for (ChunkRef& data : st->coalesced_results) {
    results.push_back(std::move(data));
  }
}

void QueryEngine::Resolve(ExecState* st) {
  // A query that finished all its work but past its deadline still reports
  // kDeadlineExceeded — the caller's goodput accounting needs the truth
  // even when every chunk is attached.
  QueryStats& s = st->s;
  ++s.cancel_checks;
  const bool deadline_hit =
      st->aborted || st->ctx->ShouldAbort() ||
      s.fetch_abort == FetchAbortReason::kDeadlineExceeded ||
      s.fetch_abort == FetchAbortReason::kCancelled;
  if (deadline_hit) {
    s.salvaged_chunks = st->admitted;
    s.complete_hit = false;
    s.status = ResultStatus::kDeadlineExceeded;
  } else if (!st->result.unavailable.empty()) {
    s.status = ResultStatus::kDegradedPartial;
  } else if (s.fetch_abort != FetchAbortReason::kNone || !st->backend_trusted) {
    s.status = ResultStatus::kDegradedComplete;
  } else {
    s.status = ResultStatus::kOk;
  }
  st->result.status = s.status;
}

void QueryEngine::AdmitResult(const ResultCacheKey& key, ExecState* st) {
  // --- Result-cache admission: only a clean, complete, healthy answer may
  // become a cached result (a degraded or salvaged answer could be partial
  // or built over a breaker-open view). The admission itself is cost-based
  // inside MaybeAdmit: the recompute cost is the fold work plus the
  // backend scan work a future hit avoids. ---
  QueryStats& s = st->s;
  if (result_cache_ == nullptr || s.status != ResultStatus::kOk ||
      !st->result.unavailable.empty()) {
    return;
  }
  Stopwatch admit_timer;
  const double recompute_cost =
      static_cast<double>(s.tuples_aggregated) + st->backend_cost_tuples;
  s.result_cache_admitted =
      result_cache_->MaybeAdmit(key, st->gb, st->result.chunks, recompute_cost);
  s.update_ms += admit_timer.ElapsedMillis();
}

}  // namespace aac
