// Timing decorators around the middle tier's public virtual seams, and the
// in-memory span store they record into.
//
// The benchmark measures layers from outside: it never edits the program.
// Each decorator forwards to the real component and, while tracing is on
// and the calling thread belongs to a benchmark client, times the call,
// bumps the client's per-layer counters and appends a child span under the
// client's current root span (one per query or update batch). Everything a
// client records lives in its own ClientTrace, so recording takes no lock;
// the benchmark merges the per-client records after the clients have joined.

#ifndef STACKBENCH_LAYERS_H_
#define STACKBENCH_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "cache/chunk_cache.h"
#include "core/strategy.h"

namespace stackbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// What a span measured.
enum class SpanKind : uint8_t {
  kQuery,        // root: one ExecuteQuery as the client saw it
  kUpdateBatch,  // root: one ApplyFactUpdates batch
  kFindPlan,     // child: LookupStrategy::FindPlan
  kBackendCall,  // child: Backend::ExecuteChunkQuery
  kDemote,       // child: DemotionSink::OnDemote (hot -> warm tier)
};

const char* SpanKindName(SpanKind kind);

/// One recorded span. Children carry their root's request id as `request`
/// and the root's span id (always 0) as parent.
struct Span {
  uint64_t request = 0;
  SpanKind kind = SpanKind::kQuery;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The program-reported phase timers of one query (QueryStats), attached
/// to its root span so a reader can set them beside the measured spans.
struct RootRecord {
  uint64_t request = 0;
  SpanKind kind = SpanKind::kQuery;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // time covered by decorated child calls
  double lookup_ms = 0.0;
  double aggregation_ms = 0.0;
  double update_ms = 0.0;
  double backend_sim_ms = 0.0;
  double fold_ms = 0.0;
  double decode_ms = 0.0;
  double queue_wait_ms = 0.0;
};

/// Per-client trace state: per-layer counters and samples for the whole
/// traced phase, plus the spans of the first `kStoredRequests` requests.
struct ClientTrace {
  /// Requests per client whose spans are kept for the span file; later
  /// requests still feed the counters and samples below.
  static constexpr int64_t kStoredRequests = 500;

  // The current root, set by BeginRequest.
  uint64_t request = 0;
  bool store = false;
  int64_t child_ns = 0;
  int64_t planned_from_cache = 0;  // FindPlan calls that returned a plan

  // core.strategy
  int64_t find_plan_calls = 0;
  std::vector<uint32_t> find_plan_ns;
  // backend
  int64_t backend_calls = 0;
  int64_t backend_chunks = 0;
  int64_t backend_charged_ns = 0;
  std::vector<int64_t> backend_real_ns;
  // cache.warm_tier
  int64_t demote_calls = 0;
  std::vector<uint32_t> demote_ns;

  std::vector<Span> spans;
  std::vector<RootRecord> roots;
  int64_t stored_requests = 0;

  void BeginRequest(uint64_t id) {
    request = id;
    child_ns = 0;
    planned_from_cache = 0;
    store = stored_requests < kStoredRequests;
    if (store) ++stored_requests;
  }

  void Child(SpanKind kind, int64_t start_ns, int64_t end_ns) {
    child_ns += end_ns - start_ns;
    if (store) spans.push_back(Span{request, kind, start_ns, end_ns});
  }
};

/// Tracing switch plus the calling thread's client trace. Decorators
/// record only when both are set: set-up, warm-up and oracle checks run on
/// threads without a client trace and are never recorded.
class Tracer {
 public:
  static bool on() { return on_.load(std::memory_order_relaxed); }
  /// Flip only while no client runs (threads are spawned after the write).
  static void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  static void set_current(ClientTrace* trace) { current_ = trace; }

  /// The trace to record into, or null when this call is not traced.
  static ClientTrace* Active() { return on() ? current_ : nullptr; }

 private:
  static inline std::atomic<bool> on_{false};
  static inline thread_local ClientTrace* current_ = nullptr;
};

/// LookupStrategy decorator: times FindPlan (the engine's only lookup
/// entry point) and counts plans that promised a cache answer.
class TimedStrategy : public aac::LookupStrategy {
 public:
  explicit TimedStrategy(aac::LookupStrategy* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  bool IsComputable(aac::GroupById gb, aac::ChunkId chunk) override {
    return inner_->IsComputable(gb, chunk);
  }
  std::unique_ptr<aac::PlanNode> FindPlan(aac::GroupById gb,
                                          aac::ChunkId chunk) override;
  aac::CacheListener* listener() override { return inner_->listener(); }
  int64_t SpaceOverheadBytes() const override {
    return inner_->SpaceOverheadBytes();
  }

 private:
  aac::LookupStrategy* inner_;
};

/// Backend decorator: times every chunk query as real wall time and keeps
/// the simulated latency it charged apart.
class TimedBackend : public aac::Backend {
 public:
  explicit TimedBackend(aac::Backend* inner) : inner_(inner) {}

  const aac::BackendCostModel& cost_model() const override {
    return inner_->cost_model();
  }
  aac::BackendResult ExecuteChunkQuery(
      aac::GroupById gb, const std::vector<aac::ChunkId>& chunks) override;
  int64_t EstimateQueryCostNanos(
      aac::GroupById gb,
      const std::vector<aac::ChunkId>& chunks) const override {
    return inner_->EstimateQueryCostNanos(gb, chunks);
  }
  int64_t EstimateMarginalChunkCostNanos(aac::GroupById gb,
                                         aac::ChunkId chunk) const override {
    return inner_->EstimateMarginalChunkCostNanos(gb, chunk);
  }

 private:
  aac::Backend* inner_;
};

/// DemotionSink decorator over the warm tier: times each demotion (the
/// compression of a hot-cache victim); erasures pass straight through.
class TimedDemotionSink : public aac::DemotionSink {
 public:
  explicit TimedDemotionSink(aac::DemotionSink* inner) : inner_(inner) {}

  void OnDemote(const aac::CacheEntryInfo& info,
                aac::ChunkData&& data) override;
  void OnErase(const aac::CacheKey& key) override { inner_->OnErase(key); }

 private:
  aac::DemotionSink* inner_;
};

}  // namespace stackbench

#endif  // STACKBENCH_LAYERS_H_
