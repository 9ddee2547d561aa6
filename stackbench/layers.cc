#include "layers.h"

#include <algorithm>
#include <utility>

namespace stackbench {
namespace {

uint32_t ClampNs(int64_t ns) {
  return static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX));
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kUpdateBatch:
      return "update_batch";
    case SpanKind::kFindPlan:
      return "core.strategy.find_plan";
    case SpanKind::kBackendCall:
      return "backend.execute_chunk_query";
    case SpanKind::kDemote:
      return "cache.warm_tier.on_demote";
  }
  return "?";
}

std::unique_ptr<aac::PlanNode> TimedStrategy::FindPlan(aac::GroupById gb,
                                                       aac::ChunkId chunk) {
  ClientTrace* trace = Tracer::Active();
  if (trace == nullptr) return inner_->FindPlan(gb, chunk);
  const int64_t start = NowNs();
  std::unique_ptr<aac::PlanNode> plan = inner_->FindPlan(gb, chunk);
  const int64_t end = NowNs();
  ++trace->find_plan_calls;
  trace->find_plan_ns.push_back(ClampNs(end - start));
  if (plan != nullptr) ++trace->planned_from_cache;
  trace->Child(SpanKind::kFindPlan, start, end);
  return plan;
}

aac::BackendResult TimedBackend::ExecuteChunkQuery(
    aac::GroupById gb, const std::vector<aac::ChunkId>& chunks) {
  ClientTrace* trace = Tracer::Active();
  if (trace == nullptr) return inner_->ExecuteChunkQuery(gb, chunks);
  const int64_t start = NowNs();
  aac::BackendResult result = inner_->ExecuteChunkQuery(gb, chunks);
  const int64_t end = NowNs();
  ++trace->backend_calls;
  trace->backend_chunks += static_cast<int64_t>(chunks.size());
  trace->backend_charged_ns += result.charged_nanos;
  trace->backend_real_ns.push_back(end - start);
  trace->Child(SpanKind::kBackendCall, start, end);
  return result;
}

void TimedDemotionSink::OnDemote(const aac::CacheEntryInfo& info,
                                 aac::ChunkData&& data) {
  ClientTrace* trace = Tracer::Active();
  if (trace == nullptr) {
    inner_->OnDemote(info, std::move(data));
    return;
  }
  const int64_t start = NowNs();
  inner_->OnDemote(info, std::move(data));
  const int64_t end = NowNs();
  ++trace->demote_calls;
  trace->demote_ns.push_back(ClampNs(end - start));
  trace->Child(SpanKind::kDemote, start, end);
}

}  // namespace stackbench
