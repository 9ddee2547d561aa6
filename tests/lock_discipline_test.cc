// Lock-discipline regression suite (ctest label "concurrency"; runs under
// ThreadSanitizer via tools/check.sh tsan). Covers the concurrency bugs the
// thread-safety annotation pass surfaced:
//
//   * CircuitBreaker was engine-private and unlocked; once shared it also
//     granted *unlimited* concurrent probes while half-open, defeating the
//     point of probing. Now all state is behind a mutex and half-open
//     grants exactly one unresolved probe at a time.
//   * BackendServer::stats() / FaultInjectingBackend::stats() returned a
//     const reference to mutex-guarded counters — a torn, racy view under
//     concurrent queries — and ResetStats() wrote them without the lock.
//     Both now snapshot by value under the lock.
//   * Engine-level single-flight: a follower whose leader's backend fetch
//     fails must fall back to its own fetch, not hang and not silently
//     drop chunks.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "backend/fault_injector.h"
#include "core/circuit_breaker.h"
#include "core/concurrent_engine.h"
#include "core/query_engine.h"
#include "core/vcmc.h"
#include "test_env.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace aac {
namespace {

// ---------------------------------------------------------------------------
// CircuitBreaker: half-open single-probe discipline.
// ---------------------------------------------------------------------------

BreakerConfig TightBreaker() {
  BreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown_ns = 1'000;
  config.success_threshold = 2;
  return config;
}

void TripBreaker(CircuitBreaker& breaker, SimClock& clock) {
  while (breaker.state() != BreakerState::kOpen) {
    if (breaker.AllowRequest()) {
      breaker.RecordFailure();
    } else {
      breaker.RecordFailure();  // tolerated no-op while open
    }
  }
  clock.Charge(TightBreaker().cooldown_ns);  // cooldown elapses
}

// Regression (deterministic): while half-open, the second AllowRequest must
// be rejected until the first probe's outcome is recorded. Before the fix
// every caller arriving after cooldown was granted a probe.
TEST(BreakerDisciplineTest, HalfOpenGrantsOneProbeUntilOutcomeRecorded) {
  SimClock clock;
  CircuitBreaker breaker(TightBreaker(), &clock);
  TripBreaker(breaker, clock);

  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest());    // the probe
  EXPECT_FALSE(breaker.AllowRequest());   // rejected: probe unresolved
  EXPECT_FALSE(breaker.AllowRequest());
  BreakerStats stats = breaker.stats();
  EXPECT_EQ(stats.probes, 1);
  EXPECT_EQ(stats.rejected, 2);

  // Probe fails: breaker reopens, and after another cooldown the next
  // probe is granted afresh.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  clock.Charge(TightBreaker().cooldown_ns);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());

  // Probe succeeds: the in-flight token is released, the next probe runs,
  // and success_threshold consecutive successes close the breaker.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().closes, 1);
}

// A thundering herd arriving at cooldown expiry must collapse to one
// granted probe per resolution, no matter the interleaving.
TEST(BreakerDisciplineTest, ConcurrentHalfOpenHerdGrantsExactlyOneProbe) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  SimClock clock;
  CircuitBreaker breaker(TightBreaker(), &clock);

  for (int round = 0; round < kRounds; ++round) {
    TripBreaker(breaker, clock);
    std::atomic<int> granted{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        if (breaker.AllowRequest()) granted.fetch_add(1);
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(granted.load(), 1) << "round " << round;
    // Resolve the probe with a failure so the next round re-trips cleanly
    // from the open state.
    breaker.RecordFailure();
    ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  }
  EXPECT_EQ(breaker.stats().probes, kRounds);
}

// Pure TSan exercise: unsynchronized mixed traffic on one shared breaker.
// Before the conversion the breaker had no lock at all, so this test (run
// under tools/check.sh tsan) flagged every counter update.
TEST(BreakerDisciplineTest, ConcurrentMixedTrafficKeepsCountersCoherent) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5000;
  SimClock clock;
  CircuitBreaker breaker(TightBreaker(), &clock);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 104729 + 7);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (breaker.AllowRequest()) {
          if (rng.Bernoulli(0.5)) {
            breaker.RecordSuccess();
          } else {
            breaker.RecordFailure();
          }
        } else if (rng.Bernoulli(0.1)) {
          clock.Charge(TightBreaker().cooldown_ns);  // let it cool down
        }
        // Concurrent observers of the snapshot accessors.
        const BreakerStats stats = breaker.stats();
        ASSERT_GE(stats.trips, 0);
        ASSERT_GE(breaker.consecutive_failures(), 0);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const BreakerStats stats = breaker.stats();
  // Every reopen/close pairs with a granted probe that got resolved.
  EXPECT_GE(stats.probes, stats.reopens + stats.closes);
  EXPECT_GE(stats.trips, 1);
}

// ---------------------------------------------------------------------------
// Backend stats snapshots vs concurrent queries.
// ---------------------------------------------------------------------------

// BackendServer::stats() used to return a const reference into mutex-guarded
// counters: readers raced ExecuteChunkQuery (TSan) and could see torn
// counts. The by-value snapshot must be internally consistent at all times.
TEST(BackendStatsDisciplineTest, SnapshotsDoNotRaceWithQueries) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.6, 11, 1'000'000);
  const GroupById detailed =
      static_cast<GroupById>(env.lattice().num_groupbys() - 1);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(3);
    for (int i = 0; i < 400; ++i) {
      const GroupById gb =
          static_cast<GroupById>(rng.Uniform(env.lattice().num_groupbys()));
      const ChunkId chunk =
          static_cast<ChunkId>(rng.Uniform(env.grid().NumChunks(gb)));
      env.backend->ExecuteChunkQuery(gb, {chunk});
    }
    stop.store(true);
  });
  std::thread resetter([&] {
    int resets = 0;
    while (!stop.load()) {
      if (++resets % 16 == 0) env.backend->ResetStats();
      const BackendStats stats = env.backend->stats();
      // Counters only move together under the lock; a snapshot where
      // chunks were returned by zero queries is torn.
      ASSERT_FALSE(stats.queries == 0 && stats.chunks_returned > 0);
      ASSERT_GE(stats.tuples_scanned, 0);
    }
  });
  writer.join();
  resetter.join();

  const BackendStats stats = env.backend->stats();
  EXPECT_GE(stats.queries, 0);
  (void)detailed;
}

// Same discipline for the fault injector: its per-class fault counters are
// incremented exactly once per call, so any locked snapshot satisfies
// calls == clean + faults; a torn (by-reference) read does not.
TEST(FaultInjectorStatsDisciplineTest, SnapshotsArePartitionedByFaultClass) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.6, 13, 1'000'000);
  FaultConfig config;
  config.transient_error_rate = 0.25;
  config.timeout_rate = 0.1;
  config.partial_result_rate = 0.15;
  config.latency_spike_rate = 0.1;
  config.seed = 99;
  FaultInjectingBackend faulty(env.backend.get(), config, env.clock.get());

  auto partitioned = [](const FaultStats& s) {
    return s.calls == s.clean + s.transient_errors + s.timeouts + s.partials +
                          s.latency_spikes;
  };

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 21);
      for (int i = 0; i < 300; ++i) {
        const GroupById gb =
            static_cast<GroupById>(rng.Uniform(env.lattice().num_groupbys()));
        const ChunkId chunk =
            static_cast<ChunkId>(rng.Uniform(env.grid().NumChunks(gb)));
        faulty.ExecuteChunkQuery(gb, {chunk});
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      ASSERT_TRUE(partitioned(faulty.stats()));
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  const FaultStats stats = faulty.stats();
  EXPECT_TRUE(partitioned(stats));
  EXPECT_EQ(stats.calls, 600);
  EXPECT_GT(stats.transient_errors + stats.timeouts + stats.partials +
                stats.latency_spikes,
            0);
}

// ---------------------------------------------------------------------------
// Engine-level single-flight: leader failure falls back, answers stay real.
// ---------------------------------------------------------------------------

TEST(SingleFlightEngineTest, LeaderFailureFallsBackWithoutLosingChunks) {
  constexpr int kThreads = 4;
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.7, 29, 1'000'000,
                            /*two_level_policy=*/false, /*bytes_per_tuple=*/10,
                            /*num_shards=*/8);
  FaultConfig fault_config;
  fault_config.transient_error_rate = 0.5;  // leaders fail half the time
  fault_config.seed = 5;
  FaultInjectingBackend faulty(env.backend.get(), fault_config,
                               env.clock.get());

  auto strategy = std::make_unique<VcmcStrategy>(
      env.cube.grid.get(), env.cache.get(), env.size_model.get());
  env.cache->AddListener(strategy->listener());

  QueryEngine::Config engine_config;
  engine_config.retry.max_attempts = 3;
  TestEnv* env_ptr = &env;
  VcmcStrategy* strategy_ptr = strategy.get();
  FaultInjectingBackend* backend_ptr = &faulty;
  ConcurrentQueryEngine concurrent([env_ptr, strategy_ptr, backend_ptr,
                                    engine_config] {
    return std::make_unique<QueryEngine>(
        env_ptr->cube.grid.get(), env_ptr->cache.get(), strategy_ptr,
        backend_ptr, env_ptr->benefit.get(), env_ptr->clock.get(),
        engine_config);
  });

  // Everyone asks for the whole most-detailed level of a cold cache at
  // once: maximal overlap, so flights coalesce and failed leaders strand
  // followers — who must fall back to their own fetch.
  const GroupById detailed =
      static_cast<GroupById>(env.lattice().num_groupbys() - 1);
  const Query query =
      Query::WholeLevel(env.schema(), env.lattice().LevelOf(detailed));

  // Ground truth from the undecorated backend (faults never corrupt data,
  // they only delay or drop calls).
  std::vector<ChunkId> all_chunks;
  for (ChunkId c = 0; c < env.grid().NumChunks(detailed); ++c) {
    all_chunks.push_back(c);
  }
  double want_sum = 0.0;
  int64_t want_count = 0;
  for (const ChunkData& chunk :
       env.backend->ExecuteChunkQuery(detailed, all_chunks).chunks) {
    for (const Cell& cell : chunk.cells) {
      want_sum += cell.measure;
      want_count += cell.count;
    }
  }

  std::vector<QueryResult> results(kThreads);
  std::vector<QueryStats> stats(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<size_t>(t)] =
          concurrent.ExecuteQuery(query, &stats[static_cast<size_t>(t)]);
    });
  }
  for (std::thread& t : threads) t.join();

  int complete = 0;
  for (int t = 0; t < kThreads; ++t) {
    const QueryResult& result = results[static_cast<size_t>(t)];
    const QueryStats& s = stats[static_cast<size_t>(t)];
    // Status and unavailable list must agree.
    EXPECT_EQ(result.complete(), result.status != ResultStatus::kDegradedPartial);
    EXPECT_EQ(static_cast<int64_t>(result.unavailable.size()),
              s.chunks_unavailable);
    if (!result.complete()) continue;
    ++complete;
    // A complete answer — whether served by its own fetch, a coalesced
    // flight, or a post-leader-failure fallback fetch — must match the
    // ground truth exactly.
    double got_sum = 0.0;
    int64_t got_count = 0;
    for (const ChunkRef& chunk : result.chunks) {
      for (const Cell& cell : chunk->cells) {
        got_sum += cell.measure;
        got_count += cell.count;
      }
    }
    EXPECT_EQ(got_count, want_count) << "thread " << t;
    EXPECT_DOUBLE_EQ(got_sum, want_sum) << "thread " << t;
  }
  // With 3 attempts per call at 50% failure, at least one of the four
  // queries completes in practice for any seed; the assertion guards the
  // test against silently degenerating into "all degraded, nothing
  // verified".
  EXPECT_GE(complete, 1);

  // The faulty phase over, a warm-cache query must be complete and exact
  // without touching the backend at all.
  QueryStats warm_stats;
  const QueryResult warm = concurrent.ExecuteQuery(query, &warm_stats);
  ASSERT_TRUE(warm.complete());
  EXPECT_EQ(warm_stats.chunks_backend, 0);
  double warm_sum = 0.0;
  int64_t warm_count = 0;
  for (const ChunkRef& chunk : warm.chunks) {
    for (const Cell& cell : chunk->cells) {
      warm_sum += cell.measure;
      warm_count += cell.count;
    }
  }
  EXPECT_EQ(warm_count, want_count);
  EXPECT_DOUBLE_EQ(warm_sum, want_sum);
}

}  // namespace
}  // namespace aac
