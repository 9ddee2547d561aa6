// End-to-end stack benchmark: stands up the whole middle tier (admission ->
// result cache -> strategy lookup -> hot read -> warm/disk decode -> fold
// -> single-flight or backend -> admit) and drives one named workload as a
// closed loop of client threads, each waiting for its answer before it
// sends the next query.
//
//   stack_bench --workload hot_direct|rollup_fold|dashboard_writes
//               --seed N --seconds S --trace 0|1
//               [--clients 4] [--scratch-dir DIR]
//               [--git-commit SHA]
//
// A run sets the stack up four times (setup_s is the median) and
// measures each set-up for a quarter of --seconds.
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// installed. --trace 1 installs the timing decorators (layers.h) and
// measures each set-up untraced, traced, untraced (a quarter, a half and a
// quarter of its share): the per-layer metrics come from the traced
// halves, trace.overhead_pct from the qps gap between the two, and the
// spans of the first requests are written to DIR/traces/. Every metric is
// printed by name with its unit; the last stdout line is one JSON object
// {correct, attempted, failed, metrics}.
//
// Correctness gates (any failure prints correct=false and exits 1):
//  - answer oracle: a seeded sample of answers is compared row for row
//    with an independent BackendServer over the live fact table;
//  - route ledger: per query, direct + aggregated + warm + disk + backend
//    + unavailable chunks must equal the chunks requested;
//  - fixed point (hot_direct): no eviction, fold or backend chunk while
//    measuring;
//  - structural invariants of every cache layer at quiescence.
// See stackbench/README.md for why each workload exists.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "core/concurrent_engine.h"
#include "core/invalidation.h"
#include "core/query.h"
#include "layers.h"
#include "storage/fold_kernel.h"
#include "util/rng.h"
#include "workload/experiment.h"
#include "workload/query_stream.h"

namespace stackbench {
namespace {

// ---------------------------------------------------------------------------
// Options and workload shapes.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int clients = 4;
  std::string scratch_dir = ".bench_build";
  std::string git_commit = "unknown";
};

enum class WorkloadKind { kHotDirect, kRollupFold, kDashboardWrites };

/// Everything that distinguishes one workload's stack and driving loop.
struct Shape {
  WorkloadKind kind;
  double cache_fraction;  // hot cache, as a multiple of the base table
  bool preload;           // two-level preload rule before the run
  bool boost_groups;      // rule 2 of the two-level policy
  bool tiers;             // 0.5 warm tier + 64 MB disk spill
  bool result_cache;      // result cache at 1/4 of the hot budget
  bool admission;         // admission sized to the client count
  int64_t warm_arrivals;  // closed-loop warm-up before measuring (0: none)
  int64_t update_every;   // drain + update batch every N arrivals (0: none)
  int probe_batches;      // update batches applied after measuring
};

std::optional<Shape> ShapeFor(const std::string& name) {
  if (name == "hot_direct") {
    // 40x base: the warmed replay of the fixed stream never evicts.
    return Shape{WorkloadKind::kHotDirect, 40.0, false, false, false, false,
                 false, 0, 0, 16};
  }
  if (name == "rollup_fold") {
    // The paper's Figure 10 configuration: base group-by preloaded into a
    // 2x-base cache, group boosting on, every arrival a fresh query.
    return Shape{WorkloadKind::kRollupFold, 2.0, true, true, false, false,
                 false, 500, 0, 16};
  }
  if (name == "dashboard_writes") {
    return Shape{WorkloadKind::kDashboardWrites, 0.25, false, false, true,
                 true, true, 500, 500, 0};
  }
  return std::nullopt;
}

constexpr int64_t kTuples = 150'000;
constexpr int kUpdateTuples = 200;        // fact tuples per update batch
constexpr int kDashboardPool = 200;       // distinct dashboard tiles
constexpr int64_t kTileMaxCells = 200;    // a tile answers <= 200 cells
constexpr int64_t kScanMinCells = 20'000; // a wide scan reads >= 20k cells
constexpr int kScanEvery = 12;            // every 12th arrival is a scan
constexpr int64_t kSampleEvery = 29;      // oracle samples ~1 in 29 answers
constexpr int64_t kMaxSamples = 96;       // ... at most this many per set-up
constexpr int kPostUpdateChecks = 8;      // queries re-checked per update
constexpr int kSetupReps = 4;             // set-ups per run; setup_s = median
constexpr int kRollupSessions = 16;       // interleaved analyst sessions
constexpr int64_t kHotRampArrivals = 20'000;
constexpr uint64_t kStreamSeed = 43;      // see Bench::MakeInputs
constexpr uint64_t kUpdateRequestBase = uint64_t{1} << 62;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Inputs: the query streams are fixed; the seed draws the update batches.

int64_t MaxAnswerCells(const aac::Schema& schema, const aac::Query& q) {
  int64_t cells = 1;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const auto& r = q.ranges[static_cast<size_t>(d)];
    cells *= std::max<int64_t>(r.second - r.first, 1);
  }
  return cells;
}

/// Dashboard arrivals: a pool of small tiles replayed with an 80/20
/// hot-set skew, every kScanEvery-th arrival a one-off wide scan.
std::vector<aac::Query> DashboardArrivals(const aac::Schema& schema,
                                          uint64_t seed, int64_t total) {
  aac::QueryStreamConfig config;
  config.seed = seed;
  aac::QueryStreamGenerator gen(&schema, config);
  std::vector<aac::Query> pool;
  std::vector<aac::Query> scans;
  const int64_t want_scans = total / kScanEvery + 1;
  for (int round = 0; round < 2000 && (static_cast<int>(pool.size()) <
                                           kDashboardPool ||
                                       static_cast<int64_t>(scans.size()) <
                                           want_scans);
       ++round) {
    for (aac::QueryStreamEntry& e : gen.Generate(kDashboardPool)) {
      const int64_t cells = MaxAnswerCells(schema, e.query);
      if (cells <= kTileMaxCells &&
          static_cast<int>(pool.size()) < kDashboardPool) {
        pool.push_back(e.query);
      } else if (cells >= kScanMinCells &&
                 static_cast<int64_t>(scans.size()) < want_scans) {
        scans.push_back(e.query);
      }
    }
  }
  if (pool.empty() || scans.empty()) return {};
  const uint64_t hot = std::max<uint64_t>(1, pool.size() / 5);
  aac::Rng rng(seed + 2);
  // Scans are one-off reads; shuffling them keeps heavy stretches of one
  // generator session from clustering in one part of the run.
  for (size_t i = scans.size(); i > 1; --i) {
    std::swap(scans[i - 1], scans[rng.Uniform(i)]);
  }
  std::vector<aac::Query> arrivals;
  arrivals.reserve(static_cast<size_t>(total));
  size_t next_scan = 0;
  for (int64_t i = 0; i < total; ++i) {
    if (i % kScanEvery == kScanEvery - 1) {
      arrivals.push_back(scans[next_scan++ % scans.size()]);
      continue;
    }
    const uint64_t pick = rng.Bernoulli(0.8) ? rng.Uniform(hot)
                                              : rng.Uniform(pool.size());
    arrivals.push_back(pool[pick]);
  }
  return arrivals;
}

/// `count` paper-mix queries from `sessions` independent analyst sessions,
/// interleaved round-robin. One session alternates stretches of heavy and
/// light queries (drill-downs chain off each other); interleaving many keeps
/// every stretch of the stream alike, so a run that ends a little earlier
/// or later measures the same mix.
std::vector<aac::Query> PaperMix(const aac::Schema& schema, uint64_t seed,
                                 int64_t count, int sessions) {
  const int64_t per_session = (count + sessions - 1) / sessions;
  std::vector<std::vector<aac::QueryStreamEntry>> streams;
  for (int k = 0; k < sessions; ++k) {
    aac::QueryStreamConfig config;
    config.seed = seed + static_cast<uint64_t>(k);
    aac::QueryStreamGenerator gen(&schema, config);
    streams.push_back(gen.Generate(static_cast<int>(per_session)));
  }
  std::vector<aac::Query> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    out.push_back(streams[static_cast<size_t>(i % sessions)]
                         [static_cast<size_t>(i / sessions)]
                             .query);
  }
  return out;
}

/// One seeded batch of new fact tuples (integer measures keep every
/// aggregate exact, so the oracle can compare doubles with ==).
std::vector<aac::Cell> UpdateBatch(const aac::Schema& schema, uint64_t seed,
                                   int64_t batch) {
  aac::Rng rng(Mix(seed ^ 0x5bd1e995ULL) + static_cast<uint64_t>(batch));
  const aac::LevelVector& base = schema.base_level();
  std::vector<aac::Cell> cells;
  cells.reserve(kUpdateTuples);
  for (int i = 0; i < kUpdateTuples; ++i) {
    aac::Cell cell;
    for (int d = 0; d < schema.num_dims(); ++d) {
      cell.values[static_cast<size_t>(d)] = static_cast<int32_t>(rng.Uniform(
          static_cast<uint64_t>(schema.dimension(d).cardinality(base[d]))));
    }
    aac::InitCellAggregates(cell,
                            static_cast<double>(rng.Uniform(1000)) + 1.0);
    cells.push_back(cell);
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Measurement records.

template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t k = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return static_cast<double>(v[k]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

template <typename T>
void Append(std::vector<T>* into, const std::vector<T>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

/// One completed query as its client saw it.
struct QuerySample {
  int64_t end_ns;      // completion time on the steady clock
  int64_t latency_ns;  // client-observed ExecuteQuery time
  double backend_ms;   // simulated backend time charged to the query
};

/// Per-query outcome totals of one client (merged across clients).
struct QueryTotals {
  int64_t queries = 0;
  int64_t failed = 0;
  int64_t complete = 0;
  int64_t ledger_mismatches = 0;
  int64_t direct = 0;
  int64_t aggregated = 0;
  int64_t backend = 0;
  int64_t coalesced = 0;
  int64_t warm = 0;
  int64_t disk = 0;
  int64_t tuples_aggregated = 0;
  int64_t fold_ns = 0;
  int64_t fallback_chunks = 0;  // planned from the cache, served by backend
  double update_ms = 0.0;
  std::vector<QuerySample> samples;
  std::vector<int64_t> result_hit_ns;
  std::vector<int64_t> direct_only_ns;
  std::vector<double> queue_wait_ms;

  void Add(const aac::QueryStats& s, int64_t ns, int64_t end) {
    ++queries;
    if (s.status != aac::ResultStatus::kOk) ++failed;
    if (s.complete_hit) ++complete;
    samples.push_back(QuerySample{end, ns, s.backend_ms});
    queue_wait_ms.push_back(s.queue_wait_ms);
    if (s.result_cache_hit) {
      result_hit_ns.push_back(ns);
      return;
    }
    direct += s.chunks_direct;
    aggregated += s.chunks_aggregated;
    backend += s.chunks_backend;
    coalesced += s.chunks_coalesced;
    warm += s.chunks_warm;
    disk += s.chunks_disk;
    tuples_aggregated += s.tuples_aggregated;
    fold_ns += s.fold_ns;
    update_ms += s.update_ms;
    const int64_t routed = s.chunks_direct + s.chunks_aggregated +
                           s.chunks_warm + s.chunks_disk + s.chunks_backend +
                           s.chunks_unavailable;
    if (routed != s.chunks_requested) ++ledger_mismatches;
    if (s.chunks_requested > 0 && s.chunks_direct == s.chunks_requested) {
      direct_only_ns.push_back(ns);
    }
  }

  void Merge(const QueryTotals& o) {
    queries += o.queries;
    failed += o.failed;
    complete += o.complete;
    ledger_mismatches += o.ledger_mismatches;
    direct += o.direct;
    aggregated += o.aggregated;
    backend += o.backend;
    coalesced += o.coalesced;
    warm += o.warm;
    disk += o.disk;
    tuples_aggregated += o.tuples_aggregated;
    fold_ns += o.fold_ns;
    fallback_chunks += o.fallback_chunks;
    update_ms += o.update_ms;
    Append(&samples, o.samples);
    Append(&result_hit_ns, o.result_hit_ns);
    Append(&direct_only_ns, o.direct_only_ns);
    Append(&queue_wait_ms, o.queue_wait_ms);
  }
};

/// Counters read from the program's own *Stats() snapshots; a phase's
/// activity is the difference of two snapshots around it.
struct Counters {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_inserts = 0;
  int64_t cache_rejected = 0;
  int64_t cache_evictions = 0;
  int64_t cache_demoted_bytes = 0;
  int64_t warm_hits = 0;
  int64_t warm_disk_hits = 0;
  int64_t warm_decode_ns = 0;
  int64_t warm_raw_bytes = 0;
  int64_t warm_encoded_bytes = 0;
  int64_t disk_hits = 0;
  int64_t disk_misses = 0;
  int64_t disk_torn = 0;
  int64_t disk_bytes_written = 0;
  int64_t rc_probes = 0;
  int64_t rc_hits = 0;
  int64_t rc_admitted = 0;
  int64_t rc_invalidated = 0;
  int64_t be_chunks = 0;
  int64_t be_tuples = 0;
  int64_t adm_shed = 0;
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  int64_t nodes_visited = 0;

  static constexpr int64_t Counters::*kFields[] = {
      &Counters::cache_hits,      &Counters::cache_misses,
      &Counters::cache_inserts,   &Counters::cache_rejected,
      &Counters::cache_evictions, &Counters::cache_demoted_bytes,
      &Counters::warm_hits,       &Counters::warm_disk_hits,
      &Counters::warm_decode_ns,  &Counters::warm_raw_bytes,
      &Counters::warm_encoded_bytes, &Counters::disk_hits,
      &Counters::disk_misses,     &Counters::disk_torn,
      &Counters::disk_bytes_written, &Counters::rc_probes,
      &Counters::rc_hits,         &Counters::rc_admitted,
      &Counters::rc_invalidated,  &Counters::be_chunks,
      &Counters::be_tuples,       &Counters::adm_shed,
      &Counters::plan_hits,       &Counters::plan_misses,
      &Counters::nodes_visited};

  void AddDelta(const Counters& after, const Counters& before) {
    for (auto field : kFields) this->*field += after.*field - before.*field;
  }
};

/// Root spans (with their children) kept for the span file per run.
constexpr size_t kMaxStoredRoots = 2000;

/// Everything measured over the untraced or the traced part of a run.
struct PhaseTotals {
  double wall_s = 0.0;
  /// Timed intervals (steady-clock ns): client runs and update batches.
  /// Untimed oracle checks fall between them and are cut out of the
  /// measured timeline.
  std::vector<std::pair<int64_t, int64_t>> segments;
  QueryTotals q;
  Counters c;
  ClientTrace trace;
  std::vector<double> update_ms;
  std::vector<int64_t> dropped_per_batch;

  void AddSegment(int64_t start, int64_t end) {
    segments.emplace_back(start, end);
    wall_s += static_cast<double>(end - start) / 1e9;
  }

  void MergeTrace(ClientTrace&& t) {
    trace.find_plan_calls += t.find_plan_calls;
    trace.backend_calls += t.backend_calls;
    trace.backend_chunks += t.backend_chunks;
    trace.backend_charged_ns += t.backend_charged_ns;
    trace.demote_calls += t.demote_calls;
    Append(&trace.find_plan_ns, t.find_plan_ns);
    Append(&trace.backend_real_ns, t.backend_real_ns);
    Append(&trace.demote_ns, t.demote_ns);
    if (trace.roots.size() < kMaxStoredRoots) {
      Append(&trace.spans, t.spans);
      Append(&trace.roots, t.roots);
    }
  }
};

/// Queries per measurement window. The wall-clock metrics are computed
/// per window of this many consecutive completions (each window's p99
/// still has 10 samples beyond it) and summarised by the window at the
/// fast quartile: the 75th percentile of window qps, the 25th percentile
/// of window latencies. On a shared host, stolen or slowed CPU time
/// inflates whole stretches of a run; the fast quartile reports the
/// program's own speed as long as a quarter of the windows ran
/// undisturbed, and any change to the program still moves every window.
constexpr size_t kWindowQueries = 1000;
constexpr double kFastQuartile = 0.25;

struct WindowSummary {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double modeled_ms = 0.0;
  int64_t windows = 0;
};

WindowSummary Windowed(const PhaseTotals& p) {
  // Place every completion on the measured timeline: the timed segments
  // before its own, plus its offset into that segment.
  std::vector<int64_t> base(p.segments.size(), 0);
  for (size_t k = 1; k < p.segments.size(); ++k) {
    base[k] = base[k - 1] + p.segments[k - 1].second - p.segments[k - 1].first;
  }
  std::vector<std::pair<int64_t, const QuerySample*>> done;
  done.reserve(p.q.samples.size());
  for (const QuerySample& s : p.q.samples) {
    auto it = std::upper_bound(
        p.segments.begin(), p.segments.end(), s.end_ns,
        [](int64_t t, const std::pair<int64_t, int64_t>& seg) {
          return t < seg.first;
        });
    if (it == p.segments.begin()) continue;
    const auto k = static_cast<size_t>(it - p.segments.begin()) - 1;
    done.emplace_back(base[k] + s.end_ns - p.segments[k].first, &s);
  }
  std::sort(done.begin(), done.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  WindowSummary out;
  if (done.empty()) return out;
  const size_t n = done.size();
  const size_t windows = std::max<size_t>(1, n / kWindowQueries);
  std::vector<double> qps, p50, p99, latency_mean;
  double backend_ms = 0.0;
  int64_t prev_end = 0;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = w * kWindowQueries;
    const size_t hi = w + 1 == windows ? n : lo + kWindowQueries;
    std::vector<int64_t> latency;
    double latency_sum = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      const QuerySample& s = *done[i].second;
      latency.push_back(s.latency_ns);
      latency_sum += static_cast<double>(s.latency_ns) / 1e6;
      backend_ms += s.backend_ms;
    }
    const auto count = static_cast<double>(hi - lo);
    const int64_t end = done[hi - 1].first;
    qps.push_back(Ratio(count, static_cast<double>(end - prev_end) / 1e9));
    prev_end = end;
    p50.push_back(Quantile(latency, 0.50) / 1e6);
    p99.push_back(Quantile(latency, 0.99) / 1e6);
    latency_mean.push_back(latency_sum / count);
  }
  out.qps = Quantile(qps, 1.0 - kFastQuartile);
  out.p50_ms = Quantile(p50, kFastQuartile);
  out.p99_ms = Quantile(p99, kFastQuartile);
  // The simulated backend time is never slept, so the host cannot disturb
  // it: it is averaged over the whole run and added to the fast-quartile
  // mean of the client latency.
  out.modeled_ms = Quantile(latency_mean, kFastQuartile) +
                   backend_ms / static_cast<double>(n);
  out.windows = static_cast<int64_t>(windows);
  return out;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
  int64_t samples;
};

// ---------------------------------------------------------------------------
// The stack under test.

struct Stack {
  std::unique_ptr<aac::Experiment> exp;
  std::unique_ptr<aac::ResultCache> results;
  std::unique_ptr<TimedStrategy> timed_strategy;
  std::unique_ptr<TimedBackend> timed_backend;
  std::unique_ptr<TimedDemotionSink> timed_sink;
  std::unique_ptr<aac::ConcurrentQueryEngine> pool;
};

std::unique_ptr<Stack> BuildStack(const Options& opts, const Shape& shape,
                                  const std::string& spill_path) {
  aac::ExperimentConfig config;
  config.data.num_tuples = kTuples;
  config.data.seed = opts.seed;
  config.data.dense_dim = 2;  // time: APB-1 emits per-month records
  config.measured_sizes = true;
  config.cache_shards = 16;
  config.strategy = aac::StrategyKind::kVcmc;
  config.policy = aac::PolicyKind::kTwoLevel;
  config.cache_fraction = shape.cache_fraction;
  config.preload = shape.preload;
  config.engine.boost_groups = shape.boost_groups;
  if (shape.tiers) {
    config.warm_fraction = 0.5;
    config.disk_spill_path = spill_path;
    config.disk_spill_bytes = int64_t{64} << 20;
  }
  auto stack = std::make_unique<Stack>();
  stack->exp = std::make_unique<aac::Experiment>(config);
  aac::Experiment& exp = *stack->exp;
  if (shape.result_cache) {
    aac::ResultCache::Config rc;
    rc.capacity_bytes = exp.cache_bytes() / 4;
    rc.bytes_per_tuple = config.bytes_per_tuple;
    rc.max_entry_fraction = 0.1;  // a one-off scan never displaces tiles
    stack->results = std::make_unique<aac::ResultCache>(rc);
    exp.cache().AddListener(stack->results.get());
  }
  aac::LookupStrategy* strategy = &exp.strategy();
  aac::Backend* backend = &exp.engine_backend();
  if (opts.trace) {
    stack->timed_strategy = std::make_unique<TimedStrategy>(strategy);
    stack->timed_backend = std::make_unique<TimedBackend>(backend);
    strategy = stack->timed_strategy.get();
    backend = stack->timed_backend.get();
    if (exp.warm_tier() != nullptr) {
      stack->timed_sink = std::make_unique<TimedDemotionSink>(exp.warm_tier());
      exp.cache().set_demotion_sink(stack->timed_sink.get());
    }
  }
  const aac::QueryEngine::Config engine_config = config.engine;
  stack->pool = std::make_unique<aac::ConcurrentQueryEngine>(
      [&exp, strategy, backend, engine_config] {
        return std::make_unique<aac::QueryEngine>(
            &exp.grid(), &exp.cache(), strategy, backend, &exp.benefit(),
            &exp.sim_clock(), engine_config);
      });
  if (stack->results != nullptr) {
    stack->pool->set_result_cache(stack->results.get());
  }
  if (exp.warm_tier() != nullptr) stack->pool->set_warm_tier(exp.warm_tier());
  if (shape.admission) {
    aac::AdmissionConfig admission;
    admission.max_concurrent = opts.clients;
    admission.max_concurrent_batch = opts.clients;
    stack->pool->ConfigureAdmission(admission);
  }
  return stack;
}

Counters ReadCounters(Stack& stack) {
  Counters c;
  aac::Experiment& exp = *stack.exp;
  const aac::CacheStats cache = exp.cache().stats();
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.cache_inserts = cache.inserts;
  c.cache_rejected = cache.rejected_inserts;
  c.cache_evictions = cache.evictions;
  c.cache_demoted_bytes = cache.demoted_bytes;
  if (exp.warm_tier() != nullptr) {
    const aac::WarmTierStats warm = exp.warm_tier()->stats();
    c.warm_hits = warm.hits;
    c.warm_disk_hits = warm.disk_hits;
    c.warm_decode_ns = warm.decode_ns;
    c.warm_raw_bytes = warm.demoted_raw_bytes;
    c.warm_encoded_bytes = warm.demoted_encoded_bytes;
  }
  if (exp.disk_tier() != nullptr) {
    const aac::DiskTierStats disk = exp.disk_tier()->stats();
    c.disk_hits = disk.hits;
    c.disk_misses = disk.misses;
    c.disk_torn = disk.torn_reads;
    c.disk_bytes_written = disk.bytes_written;
  }
  if (stack.results != nullptr) {
    const aac::ResultCacheStats rc = stack.results->stats();
    c.rc_probes = rc.probes;
    c.rc_hits = rc.hits;
    c.rc_admitted = rc.admitted;
    c.rc_invalidated = rc.invalidated;
  }
  const aac::BackendStats be = exp.backend().stats();
  c.be_chunks = be.chunks_returned;
  c.be_tuples = be.tuples_scanned;
  if (stack.pool->admission() != nullptr) {
    const aac::AdmissionStats adm = stack.pool->admission()->stats();
    c.adm_shed = adm.shed_queue_full + adm.shed_breaker_open;
  }
  const aac::RollupPlanCache::Stats plans =
      stack.pool->rollup_plan_cache().stats();
  c.plan_hits = plans.hits;
  c.plan_misses = plans.misses;
  c.nodes_visited =
      exp.strategy().metrics().nodes_visited.load(std::memory_order_relaxed);
  return c;
}

// ---------------------------------------------------------------------------
// The benchmark.

class Bench {
 public:
  Bench(Options opts, Shape shape) : opts_(std::move(opts)), shape_(shape) {}

  /// Runs set-up (several times), the measured phase and every check.
  /// Returns false when a correctness gate failed.
  bool Run();

  void Report(bool correct);

 private:
  const aac::Query& QueryAt(int64_t i) const {
    return shape_.kind == WorkloadKind::kHotDirect
               ? arrivals_[static_cast<size_t>(i) % arrivals_.size()]
               : arrivals_[static_cast<size_t>(i)];
  }
  int64_t ArrivalLimit() const {
    return shape_.kind == WorkloadKind::kHotDirect
               ? std::numeric_limits<int64_t>::max()
               : static_cast<int64_t>(arrivals_.size());
  }

  void MakeInputs();
  double SetUpOnce(int rep);
  void WarmUp();
  double RunClients(int64_t limit, double budget_s, bool traced,
                    PhaseTotals* into);
  void ClientLoop(int64_t limit, Clock::time_point deadline, bool record,
                  bool traced, QueryTotals* totals, ClientTrace* trace);
  void MeasureSlice(double budget_s, bool traced, PhaseTotals* into);
  double ApplyUpdate(bool traced, PhaseTotals* into);
  bool MatchesOracle(const aac::Query& q, const aac::QueryResult& got);
  void CheckSamples();
  void CheckAfterUpdate();
  void CheckQuiescent();
  void Fail(const std::string& what);
  void WriteSpans(const PhaseTotals& traced) const;
  std::vector<Metric> EndToEnd() const;
  std::vector<Metric> PerLayer() const;

  Options opts_;
  Shape shape_;
  std::string tmp_dir_;
  std::vector<aac::Query> arrivals_;
  std::unique_ptr<Stack> stack_;
  std::vector<double> setup_s_;
  std::vector<double> rep_qps_;  // untraced qps measured on each set-up

  std::atomic<int64_t> next_{0};  // next arrival index to claim
  int64_t next_update_at_ = 0;
  int64_t batches_ = 0;
  uint64_t request_base_ = 0;  // keeps span request ids unique per set-up

  struct Sample {
    int64_t index;
    aac::QueryResult result;
  };
  std::mutex samples_mu_;
  std::vector<Sample> samples_;  // guarded by samples_mu_ while clients run
  int64_t samples_taken_ = 0;    // guarded by samples_mu_

  int64_t oracle_checked_ = 0;
  int64_t oracle_mismatches_ = 0;
  std::vector<std::string> failures_;

  PhaseTotals untraced_;
  PhaseTotals traced_;
  std::vector<double> probe_update_ms_;
  std::vector<int64_t> probe_dropped_;
  ClientTrace main_trace_;  // update batches applied by the main thread
  int64_t run_start_ns_ = 0;
};

void Bench::MakeInputs() {
  const aac::ApbCube cube;  // deterministic schema; inputs need no data
  const aac::Schema& schema = cube.schema();
  // The query streams are the same on every seed, so runs on different
  // seeds do equal work; the seed draws the fact data, the update batches
  // and the oracle sample.
  const uint64_t stream_seed = kStreamSeed;
  const auto per_second = static_cast<int64_t>(std::ceil(opts_.seconds));
  switch (shape_.kind) {
    case WorkloadKind::kHotDirect:
      arrivals_ = PaperMix(schema, stream_seed, 100, /*sessions=*/1);
      break;
    case WorkloadKind::kRollupFold:
      // ~10x the arrivals the loop completes today; no query repeats.
      arrivals_ = PaperMix(schema, stream_seed,
                           shape_.warm_arrivals + 6000 * per_second,
                           kRollupSessions);
      break;
    case WorkloadKind::kDashboardWrites:
      arrivals_ = DashboardArrivals(schema, stream_seed,
                                    shape_.warm_arrivals + 6000 * per_second);
      break;
  }
}

double Bench::SetUpOnce(int rep) {
  stack_.reset();
  // Hand the previous set-up's freed heap back, so peak_rss_mb does not
  // depend on allocator history.
  malloc_trim(0);
  std::string spill;
  if (shape_.tiers) {
    const std::string dir = tmp_dir_ + "/rep" + std::to_string(rep);
    std::filesystem::create_directories(dir);
    spill = dir + "/spill.bin";
  }
  next_.store(0);
  const int64_t start = NowNs();
  stack_ = BuildStack(opts_, shape_, spill);
  WarmUp();
  return static_cast<double>(NowNs() - start) / 1e9;
}

void Bench::WarmUp() {
  if (shape_.kind == WorkloadKind::kHotDirect) {
    // Replay the fixed stream until one pass is answered entirely by
    // direct reads: the first pass fetches, the second caches the folded
    // chunks, the third should already be the fixed point.
    for (int pass = 0; pass < 8; ++pass) {
      bool all_direct = true;
      for (const aac::Query& q : arrivals_) {
        aac::ExecContext ctx;
        aac::QueryStats s;
        stack_->pool->ExecuteQuery(q, &ctx, &s);
        all_direct = all_direct && s.chunks_direct == s.chunks_requested;
      }
      if (all_direct) break;
    }
    // Then a short concurrent ramp, so per-thread allocator arenas and
    // the engine pool are in steady state before the first timed query.
    RunClients(kHotRampArrivals, 600.0, /*traced=*/false, nullptr);
    next_.store(0);
    return;
  }
  RunClients(shape_.warm_arrivals, 600.0, /*traced=*/false, nullptr);
}

double Bench::RunClients(int64_t limit, double budget_s, bool traced,
                         PhaseTotals* into) {
  const int n = opts_.clients;
  std::vector<QueryTotals> totals(static_cast<size_t>(n));
  std::vector<ClientTrace> traces(static_cast<size_t>(n));
  Tracer::set_on(traced);
  const int64_t start_ns = NowNs();
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::nanoseconds(static_cast<int64_t>(budget_s * 1e9));
  {
    std::vector<std::jthread> clients;
    clients.reserve(static_cast<size_t>(n));
    for (int c = 0; c < n; ++c) {
      clients.emplace_back([this, limit, deadline, into, traced, c, &totals,
                            &traces] {
        ClientLoop(limit, deadline, /*record=*/into != nullptr, traced,
                   &totals[static_cast<size_t>(c)],
                   &traces[static_cast<size_t>(c)]);
      });
    }
  }  // jthreads join here
  const int64_t end_ns = NowNs();
  Tracer::set_on(false);
  next_.store(std::min(next_.load(), limit));
  if (into != nullptr) {
    into->AddSegment(start_ns, end_ns);
    for (size_t c = 0; c < totals.size(); ++c) {
      into->q.Merge(totals[c]);
      into->MergeTrace(std::move(traces[c]));
    }
  }
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

void Bench::ClientLoop(int64_t limit, Clock::time_point deadline,
                       bool record, bool traced, QueryTotals* totals,
                       ClientTrace* trace) {
  Tracer::set_current(trace);
  while (Clock::now() < deadline) {
    const int64_t i = next_.fetch_add(1);
    if (i >= limit) break;
    const aac::Query& q = QueryAt(i);
    aac::ExecContext ctx;
    aac::QueryStats s;
    const uint64_t request = request_base_ + static_cast<uint64_t>(i);
    if (traced) trace->BeginRequest(request);
    const int64_t start = NowNs();
    aac::QueryResult result = stack_->pool->ExecuteQuery(q, &ctx, &s);
    const int64_t end = NowNs();
    if (!record) continue;
    totals->Add(s, end - start, end);
    if (traced) {
      totals->fallback_chunks += std::max<int64_t>(
          0, trace->planned_from_cache - s.chunks_direct -
                 s.chunks_aggregated);
      if (trace->store) {
        trace->roots.push_back(RootRecord{
            request, SpanKind::kQuery,
            start - run_start_ns_, end - run_start_ns_, trace->child_ns,
            s.lookup_ms, s.aggregation_ms, s.update_ms, s.backend_ms,
            static_cast<double>(s.fold_ns) / 1e6, s.decode_ms,
            s.queue_wait_ms});
      }
    }
    if (Mix(opts_.seed * 0x100000001b3ULL + static_cast<uint64_t>(i)) %
            kSampleEvery ==
        0) {
      std::lock_guard<std::mutex> lock(samples_mu_);
      if (samples_taken_ < kMaxSamples) {
        ++samples_taken_;
        samples_.push_back(Sample{i, std::move(result)});
      }
    }
  }
  Tracer::set_current(nullptr);
}

void Bench::MeasureSlice(double budget_s, bool traced, PhaseTotals* into) {
  double elapsed = 0.0;
  const int64_t limit_total = ArrivalLimit();
  while (elapsed < budget_s) {
    if (next_.load() >= limit_total) {
      std::printf("warning: arrival stream exhausted after %lld queries\n",
                  static_cast<long long>(next_.load()));
      break;
    }
    if (shape_.update_every > 0 && next_.load() >= next_update_at_) {
      const double ms = ApplyUpdate(traced, into);
      into->update_ms.push_back(ms);
      elapsed += ms / 1e3;
      next_update_at_ += shape_.update_every;
      CheckAfterUpdate();
      continue;
    }
    const int64_t limit =
        shape_.update_every > 0 ? next_update_at_ : limit_total;
    const Counters before = ReadCounters(*stack_);
    const double wall = RunClients(limit, budget_s - elapsed, traced, into);
    into->c.AddDelta(ReadCounters(*stack_), before);
    elapsed += wall;
    CheckSamples();
  }
}

double Bench::ApplyUpdate(bool traced, PhaseTotals* into) {
  std::vector<aac::Cell> cells =
      UpdateBatch(stack_->exp->schema(), opts_.seed, batches_);
  const uint64_t request = kUpdateRequestBase + static_cast<uint64_t>(batches_);
  ++batches_;
  const Counters before = ReadCounters(*stack_);
  const int64_t start = NowNs();
  const int64_t dropped =
      aac::ApplyFactUpdates(stack_->exp->mutable_table(), &stack_->exp->cache(),
                            std::move(cells), stack_->results.get());
  const int64_t end = NowNs();
  if (into != nullptr) {
    into->AddSegment(start, end);
    into->c.AddDelta(ReadCounters(*stack_), before);
    into->dropped_per_batch.push_back(dropped);
  } else {
    probe_dropped_.push_back(dropped);
  }
  if (traced && main_trace_.roots.size() <
                    static_cast<size_t>(ClientTrace::kStoredRequests)) {
    main_trace_.roots.push_back(
        RootRecord{request, SpanKind::kUpdateBatch, start - run_start_ns_,
                   end - run_start_ns_, 0, 0, 0, 0, 0, 0, 0, 0});
  }
  return static_cast<double>(end - start) / 1e6;
}

bool Bench::MatchesOracle(const aac::Query& q, const aac::QueryResult& got) {
  ++oracle_checked_;
  if (got.status != aac::ResultStatus::kOk) return false;
  const aac::Experiment& exp = *stack_->exp;
  // Independent ground truth: a fresh server over the live fact table,
  // with no clock and no cache anywhere near it.
  aac::BackendServer oracle(&exp.table(), aac::BackendCostModel(), nullptr);
  const aac::GroupById gb = exp.lattice().IdOf(q.level);
  const aac::BackendResult want =
      oracle.ExecuteChunkQuery(gb, aac::ChunksForQuery(exp.grid(), q));
  std::vector<aac::ResultRow> got_rows =
      aac::RefineResult(exp.schema(), q, got.chunks);
  std::vector<aac::ResultRow> want_rows =
      aac::RefineResult(exp.schema(), q, want.chunks);
  auto by_coords = [](const aac::ResultRow& a, const aac::ResultRow& b) {
    return a.values < b.values;
  };
  std::sort(got_rows.begin(), got_rows.end(), by_coords);
  std::sort(want_rows.begin(), want_rows.end(), by_coords);
  if (got_rows.size() != want_rows.size()) return false;
  for (size_t r = 0; r < got_rows.size(); ++r) {
    if (got_rows[r].values != want_rows[r].values ||
        got_rows[r].value != want_rows[r].value) {
      return false;
    }
  }
  return true;
}

void Bench::CheckSamples() {
  std::vector<Sample> samples;
  {
    std::lock_guard<std::mutex> lock(samples_mu_);
    samples.swap(samples_);
  }
  for (const Sample& s : samples) {
    if (!MatchesOracle(QueryAt(s.index), s.result)) {
      ++oracle_mismatches_;
      Fail("oracle: answer to arrival " + std::to_string(s.index) +
           " differs from a fresh backend scan");
    }
  }
}

void Bench::CheckAfterUpdate() {
  // Re-ask a seeded handful of already-issued queries through the whole
  // stack (result cache included): after invalidation every answer must
  // reflect the new tuples.
  const int64_t issued = std::min(next_.load(), ArrivalLimit());
  if (issued == 0) return;
  aac::Rng rng(Mix(opts_.seed + static_cast<uint64_t>(batches_)));
  for (int k = 0; k < kPostUpdateChecks; ++k) {
    const int64_t i =
        static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(issued)));
    aac::ExecContext ctx;
    const aac::QueryResult got =
        stack_->pool->ExecuteQuery(QueryAt(i), &ctx, nullptr);
    if (!MatchesOracle(QueryAt(i), got)) {
      ++oracle_mismatches_;
      Fail("oracle: after update batch " + std::to_string(batches_) +
           ", arrival " + std::to_string(i) + " is stale or wrong");
    }
  }
}

void Bench::CheckQuiescent() {
  aac::Experiment& exp = *stack_->exp;
  if (!exp.cache().ValidateInvariants() || exp.cache().TotalPinCount() != 0) {
    Fail("chunk cache invariants or pin balance broken at quiescence");
  }
  if (exp.warm_tier() != nullptr && !exp.warm_tier()->ValidateInvariants()) {
    Fail("warm tier invariants broken at quiescence");
  }
  if (stack_->results != nullptr && !stack_->results->ValidateInvariants()) {
    Fail("result cache invariants broken at quiescence");
  }
}

void Bench::Fail(const std::string& what) {
  if (failures_.size() < 20) failures_.push_back(what);
}

bool Bench::Run() {
  tmp_dir_ = opts_.scratch_dir + "/stackbench-tmp-" + std::to_string(getpid());
  MakeInputs();
  if (arrivals_.empty()) {
    Fail("could not generate the workload's arrivals");
    return false;
  }
  // Every set-up is measured for an equal share of --seconds, so the
  // measured time is spread over the whole run and each set-up's luck
  // (heap layout, thread placement, the host's load at that moment)
  // weighs a quarter instead of deciding the result.
  const double share = opts_.seconds / kSetupReps;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s_.push_back(SetUpOnce(rep));
    next_update_at_ = next_.load() + shape_.update_every;
    request_base_ = static_cast<uint64_t>(rep) << 40;
    {
      std::lock_guard<std::mutex> lock(samples_mu_);
      samples_taken_ = 0;
    }
    if (rep == 0) run_start_ns_ = NowNs();
    const int64_t queries_before = untraced_.q.queries;
    const double wall_before = untraced_.wall_s;
    if (opts_.trace) {
      // Untraced, traced, untraced: a drift in cache state over the
      // share hits both sides of the overhead comparison alike.
      MeasureSlice(share / 4.0, /*traced=*/false, &untraced_);
      MeasureSlice(share / 2.0, /*traced=*/true, &traced_);
      MeasureSlice(share / 4.0, /*traced=*/false, &untraced_);
    } else {
      MeasureSlice(share, /*traced=*/false, &untraced_);
    }
    rep_qps_.push_back(
        Ratio(static_cast<double>(untraced_.q.queries - queries_before),
              untraced_.wall_s - wall_before));
    if (rep + 1 < kSetupReps) CheckQuiescent();
  }

  const int64_t mismatches =
      untraced_.q.ledger_mismatches + traced_.q.ledger_mismatches;
  if (mismatches > 0) {
    Fail("route ledger: " + std::to_string(mismatches) +
         " queries whose routed chunks do not add up to chunks_requested");
  }
  if (shape_.kind == WorkloadKind::kHotDirect) {
    const int64_t evictions =
        untraced_.c.cache_evictions + traced_.c.cache_evictions;
    const int64_t folds = untraced_.q.aggregated + traced_.q.aggregated;
    const int64_t backend = untraced_.q.backend + traced_.q.backend;
    if (evictions != 0 || folds != 0 || backend != 0) {
      Fail("fixed point: measured phase recorded " +
           std::to_string(evictions) + " evictions, " +
           std::to_string(folds) + " folded chunks, " +
           std::to_string(backend) + " backend chunks (all must be 0)");
    }
  }

  // Update probe: the writer's latency against this workload's warmed
  // cache, then an oracle re-check of the invalidation.
  for (int b = 0; b < shape_.probe_batches; ++b) {
    probe_update_ms_.push_back(ApplyUpdate(opts_.trace, nullptr));
  }
  if (shape_.probe_batches > 0) CheckAfterUpdate();

  CheckQuiescent();
  if (opts_.trace) WriteSpans(traced_);
  stack_.reset();
  std::error_code ec;
  std::filesystem::remove_all(tmp_dir_, ec);
  return failures_.empty();
}

void Bench::WriteSpans(const PhaseTotals& traced) const {
  const std::string dir = opts_.scratch_dir + "/traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + opts_.workload + ".spans.jsonl";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::printf("warning: cannot write %s\n", path.c_str());
    return;
  }
  char line[512];
  auto root = [&](const RootRecord& r) {
    std::snprintf(
        line, sizeof(line),
        "{\"req\":%llu,\"span\":0,\"parent\":null,\"name\":\"%s\","
        "\"start_ns\":%lld,\"dur_ns\":%lld,\"self_ns\":%lld,"
        "\"program_reported\":{\"lookup_ms\":%.6f,\"aggregation_ms\":%.6f,"
        "\"update_ms\":%.6f,\"backend_sim_ms\":%.6f,\"fold_ms\":%.6f,"
        "\"decode_ms\":%.6f,\"queue_wait_ms\":%.6f}}\n",
        static_cast<unsigned long long>(r.request), SpanKindName(r.kind),
        static_cast<long long>(r.start_ns),
        static_cast<long long>(r.end_ns - r.start_ns),
        static_cast<long long>(r.end_ns - r.start_ns - r.child_ns),
        r.lookup_ms, r.aggregation_ms, r.update_ms, r.backend_sim_ms,
        r.fold_ms, r.decode_ms, r.queue_wait_ms);
    out << line;
  };
  for (const RootRecord& r : traced.trace.roots) root(r);
  for (const RootRecord& r : main_trace_.roots) root(r);
  uint64_t last_request = ~uint64_t{0};
  int span_id = 0;
  for (const Span& s : traced.trace.spans) {
    span_id = s.request == last_request ? span_id + 1 : 1;
    last_request = s.request;
    std::snprintf(line, sizeof(line),
                  "{\"req\":%llu,\"span\":%d,\"parent\":0,\"name\":\"%s\","
                  "\"start_ns\":%lld,\"dur_ns\":%lld}\n",
                  static_cast<unsigned long long>(s.request), span_id,
                  SpanKindName(s.kind),
                  static_cast<long long>(s.start_ns - run_start_ns_),
                  static_cast<long long>(s.end_ns - s.start_ns));
    out << line;
  }
  std::printf("spans: %zu roots, %zu children written to %s\n",
              traced.trace.roots.size() + main_trace_.roots.size(),
              traced.trace.spans.size(), path.c_str());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> Bench::EndToEnd() const {
  const PhaseTotals& u = untraced_;
  const WindowSummary w = Windowed(u);
  return {
      {"qps", "queries/s", w.qps, u.q.queries},
      {"query_ms_p50", "ms", w.p50_ms, u.q.queries},
      {"query_ms_p99", "ms", w.p99_ms, u.q.queries},
      {"modeled_query_ms_mean", "ms", w.modeled_ms, u.q.queries},
      {"complete_hit_pct", "%",
       100.0 * Ratio(static_cast<double>(u.q.complete),
                     static_cast<double>(u.q.queries)),
       u.q.queries},
      {"setup_s", "s", Quantile(setup_s_, 0.50),
       static_cast<int64_t>(setup_s_.size())},
      {"peak_rss_mb", "MB", PeakRssMb(), 1},
  };
}

std::vector<Metric> Bench::PerLayer() const {
  const PhaseTotals& t = traced_;
  const QueryTotals& q = t.q;
  const Counters& c = t.c;
  const ClientTrace& tr = t.trace;
  const auto queries = static_cast<double>(q.queries);
  const auto d = [](int64_t v) { return static_cast<double>(v); };
  const double promotions = d(q.warm + q.disk);
  const double qps_untraced =
      Ratio(d(untraced_.q.queries), untraced_.wall_s);
  const double qps_traced = Ratio(queries, t.wall_s);
  // Every update batch of the run counts: writes are rare, and the
  // decorators do not touch ApplyFactUpdates.
  std::vector<double> updates = untraced_.update_ms;
  Append(&updates, t.update_ms);
  Append(&updates, probe_update_ms_);
  std::vector<int64_t> dropped = untraced_.dropped_per_batch;
  Append(&dropped, t.dropped_per_batch);
  Append(&dropped, probe_dropped_);
  int64_t dropped_sum = 0;
  for (int64_t v : dropped) dropped_sum += v;
  const auto batches = static_cast<int64_t>(dropped.size());
  return {
      {"cache.chunk_cache.direct_chunks_per_query", "chunks/query",
       Ratio(d(q.direct), queries), q.queries},
      {"cache.chunk_cache.direct_only_query_ms_p50", "ms",
       Quantile(q.direct_only_ns, 0.50) / 1e6,
       static_cast<int64_t>(q.direct_only_ns.size())},
      {"cache.chunk_cache.evictions", "count", d(c.cache_evictions), 1},
      {"cache.chunk_cache.rejected_inserts", "count", d(c.cache_rejected), 1},
      {"cache.chunk_cache.hit_ratio", "ratio",
       Ratio(d(c.cache_hits), d(c.cache_hits + c.cache_misses)),
       c.cache_hits + c.cache_misses},
      {"core.strategy.find_plan_calls", "count", d(tr.find_plan_calls), 1},
      {"core.strategy.find_plan_us_p50", "us",
       Quantile(tr.find_plan_ns, 0.50) / 1e3, tr.find_plan_calls},
      {"core.strategy.find_plan_us_p99", "us",
       Quantile(tr.find_plan_ns, 0.99) / 1e3, tr.find_plan_calls},
      {"core.strategy.nodes_visited_per_call", "nodes/call",
       Ratio(d(c.nodes_visited), d(tr.find_plan_calls)), tr.find_plan_calls},
      {"storage.fold.fold_ms_per_query", "ms/query",
       Ratio(d(q.fold_ns) / 1e6, queries), q.queries},
      {"storage.fold.fold_ns_per_tuple", "ns/tuple",
       Ratio(d(q.fold_ns), d(q.tuples_aggregated)), q.tuples_aggregated},
      {"storage.fold.rollup_plan_hit_ratio", "ratio",
       Ratio(d(c.plan_hits), d(c.plan_hits + c.plan_misses)),
       c.plan_hits + c.plan_misses},
      {"cache.update.update_ms_per_query", "ms/query",
       Ratio(q.update_ms, queries), q.queries},
      {"cache.update.inserts_per_query", "inserts/query",
       Ratio(d(c.cache_inserts), queries), q.queries},
      {"cache.route.backend_chunks_per_query", "chunks/query",
       Ratio(d(q.backend), queries), q.queries},
      {"cache.route.fallback_to_backend_pct", "%",
       100.0 * Ratio(d(q.fallback_chunks), d(q.backend)), q.backend},
      {"cache.result_cache.hit_ratio", "ratio",
       Ratio(d(c.rc_hits), d(c.rc_probes)), c.rc_probes},
      {"cache.result_cache.result_hit_ms_p50", "ms",
       Quantile(q.result_hit_ns, 0.50) / 1e6,
       static_cast<int64_t>(q.result_hit_ns.size())},
      {"cache.result_cache.admitted", "count", d(c.rc_admitted), 1},
      {"cache.result_cache.invalidated", "count", d(c.rc_invalidated), 1},
      {"cache.warm_tier.demote_calls", "count", d(tr.demote_calls), 1},
      {"cache.warm_tier.demote_us_p50", "us",
       Quantile(tr.demote_ns, 0.50) / 1e3, tr.demote_calls},
      {"cache.warm_tier.compression_ratio", "ratio",
       Ratio(d(c.warm_raw_bytes), d(c.warm_encoded_bytes)), 1},
      {"cache.warm_tier.promotions", "count", promotions, 1},
      {"cache.warm_tier.decode_us_per_chunk", "us",
       Ratio(d(c.warm_decode_ns) / 1e3, d(c.warm_hits + c.warm_disk_hits)),
       c.warm_hits + c.warm_disk_hits},
      {"cache.disk_tier.reads", "count", d(c.disk_hits + c.disk_misses), 1},
      {"cache.disk_tier.bytes_written_per_demoted_byte", "ratio",
       Ratio(d(c.disk_bytes_written), d(c.cache_demoted_bytes)), 1},
      {"cache.disk_tier.torn_reads", "count", d(c.disk_torn), 1},
      {"core.single_flight.coalesced_ratio", "ratio",
       Ratio(d(q.coalesced), d(q.backend)), q.backend},
      {"backend.calls", "count", d(tr.backend_calls), 1},
      {"backend.chunks_per_call", "chunks/call",
       Ratio(d(tr.backend_chunks), d(tr.backend_calls)), tr.backend_calls},
      {"backend.real_ms_p50", "ms", Quantile(tr.backend_real_ns, 0.50) / 1e6,
       tr.backend_calls},
      {"backend.real_ms_p99", "ms", Quantile(tr.backend_real_ns, 0.99) / 1e6,
       tr.backend_calls},
      {"backend.sim_ms_per_call", "ms",
       Ratio(d(tr.backend_charged_ns) / 1e6, d(tr.backend_calls)),
       tr.backend_calls},
      {"backend.tuples_scanned_per_chunk", "tuples/chunk",
       Ratio(d(c.be_tuples), d(c.be_chunks)), c.be_chunks},
      {"core.admission.queue_wait_ms_p99", "ms",
       Quantile(q.queue_wait_ms, 0.99), q.queries},
      {"core.admission.shed", "count", d(c.adm_shed), 1},
      {"core.invalidation.update_ms_p50", "ms", Quantile(updates, 0.50),
       static_cast<int64_t>(updates.size())},
      {"core.invalidation.entries_dropped_per_batch", "entries/batch",
       Ratio(d(dropped_sum), d(batches)), batches},
      {"trace.overhead_pct", "%",
       100.0 * Ratio(qps_untraced - qps_traced, qps_untraced), q.queries},
  };
}

// ---------------------------------------------------------------------------
// Environment stamp and output.

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "" : line.substr(first);
      }
    }
  }
  return "unknown";
}

bool FlagOff(const char* v) {
  return std::strcmp(v, "") == 0 || std::strcmp(v, "OFF") == 0 ||
         std::strcmp(v, "0") == 0 || std::strcmp(v, "FALSE") == 0;
}

/// Prints the environment stamp and flags a build that is not plain
/// Release.
void PrintEnvStamp(const Options& opts) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = !FlagOff(STACKBENCH_SANITIZE);
#endif
  const bool lockdep = !FlagOff(STACKBENCH_LOCKDEP);
  const bool release = std::strcmp(STACKBENCH_BUILD_TYPE, "Release") == 0;
  const bool plain = release && !lockdep && !sanitized;
  std::printf(
      "env {\"nproc\": %ld, \"cpu_model\": \"%s\", \"avx2\": %s, "
      "\"fold_kernel\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"lockdep\": %s, \"sanitizer\": \"%s\", \"git_commit\": \"%s\", "
      "\"plain_release\": %s}\n",
      sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(CpuModel()).c_str(),
      aac::VectorFoldKernelSupported() ? "true" : "false",
      aac::FoldKernelName(aac::DefaultFoldKernel()),
      JsonEscape(compiler).c_str(), STACKBENCH_BUILD_TYPE,
      lockdep ? "true" : "false", sanitized ? STACKBENCH_SANITIZE : "OFF",
      JsonEscape(opts.git_commit).c_str(), plain ? "true" : "false");
  if (!plain) {
    std::printf(
        "WARNING: not a plain Release build (build type, lockdep or "
        "sanitizer); timings are not comparable with Release runs\n");
  }
}

void PrintMetric(const Metric& m) {
  std::printf("metric %-48s %16.6f %-14s (n=%lld)\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<long long>(m.samples));
}

void Bench::Report(bool correct) {
  const PhaseTotals& u = untraced_;
  const int64_t attempted = u.q.queries + traced_.q.queries;
  const int64_t failed = u.q.failed + traced_.q.failed;
  std::printf(
      "workload %s: %d clients (closed loop), %.1f s measured, %lld queries, "
      "%lld update batches, %lld oracle checks (%lld mismatches)\n",
      opts_.workload.c_str(), opts_.clients, u.wall_s + traced_.wall_s,
      static_cast<long long>(attempted), static_cast<long long>(batches_),
      static_cast<long long>(oracle_checked_),
      static_cast<long long>(oracle_mismatches_));
  std::printf("failed_pct %.4f %% (%lld of %lld queries not kOk)\n",
              100.0 * Ratio(static_cast<double>(failed),
                            static_cast<double>(attempted)),
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  if (u.q.queries < static_cast<int64_t>(kWindowQueries)) {
    std::printf("warning: only %lld latency samples; p99 needs >= %zu\n",
                static_cast<long long>(u.q.queries), kWindowQueries);
  }
  std::printf("end-to-end%s; qps, latency and modeled time are the "
              "fast quartile of %lld windows of %zu queries:\n",
              opts_.trace ? " (untraced quarters)" : "",
              static_cast<long long>(Windowed(u).windows), kWindowQueries);
  const std::vector<Metric> e2e = EndToEnd();
  for (const Metric& m : e2e) PrintMetric(m);
  std::printf("qps of each set-up:");
  for (double v : rep_qps_) std::printf(" %.1f", v);
  std::printf("\n");
  std::vector<Metric> layers;
  if (opts_.trace) {
    std::printf("per-layer (traced halves):\n");
    layers = PerLayer();
    for (const Metric& m : layers) PrintMetric(m);
  }
  for (const std::string& f : failures_) std::printf("FAIL: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& chosen = opts_.trace ? layers : e2e;
  char buf[128];
  for (size_t i = 0; i < chosen.size(); ++i) {
    const double v = std::isfinite(chosen[i].value) ? chosen[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i > 0 ? ", \"" : "\"") + chosen[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + chosen[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: stack_bench --workload hot_direct|rollup_fold|"
               "dashboard_writes --seed N --seconds S --trace 0|1 "
               "[--clients N] [--scratch-dir DIR] "
               "[--git-commit SHA]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--clients") {
      opts.clients = std::atoi(value);
    } else if (arg == "--scratch-dir") {
      opts.scratch_dir = value;
    } else if (arg == "--git-commit") {
      opts.git_commit = value;
    } else {
      return Usage();
    }
  }
  const std::optional<Shape> shape = ShapeFor(opts.workload);
  if (!shape.has_value() || opts.seconds <= 0.0 || opts.clients < 1) {
    return Usage();
  }
  PrintEnvStamp(opts);
  Bench bench(opts, *shape);
  const bool correct = bench.Run();
  bench.Report(correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) { return stackbench::Main(argc, argv); }
