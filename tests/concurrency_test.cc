// Concurrency suite (ctest label "concurrency"; tools/check.sh runs it
// under ThreadSanitizer): sharded-cache stress, single-flight coalescing,
// parallel-runner determinism, and backend-latency attribution.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "backend/fault_injector.h"
#include "cache/chunk_cache.h"
#include "cache/replacement.h"
#include "core/concurrent_engine.h"
#include "core/single_flight.h"
#include "core/vcmc.h"
#include "test_env.h"
#include "util/rng.h"
#include "workload/parallel_runner.h"
#include "workload/workload_runner.h"

namespace aac {
namespace {

ChunkData MakeChunk(GroupById gb, ChunkId chunk, int tuples) {
  ChunkData d;
  d.gb = gb;
  d.chunk = chunk;
  for (int i = 0; i < tuples; ++i) {
    Cell c;
    c.values[0] = i;
    InitCellAggregates(c, 1.0);
    d.cells.push_back(c);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Sharded-cache stress: mixed inserts, reads, boosts, removes and pinned
// reads from several threads, then a full structural audit.
// ---------------------------------------------------------------------------

TEST(CacheConcurrencyTest, MixedOpsStressPreservesInvariants) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 3000;
  constexpr GroupById kSharedGbs = 4;  // all threads hit these
  BenefitPolicy policy;
  ChunkCache cache(4000, 10, &policy, /*num_shards=*/8);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 7919 + 13);
      // Pin and Remove only touch this thread's private group-by: a pinned
      // entry must never be Removed, and that contract is the caller's.
      const GroupById own_gb = kSharedGbs + static_cast<GroupById>(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const double op = rng.UniformDouble();
        const GroupById gb = static_cast<GroupById>(rng.Uniform(kSharedGbs));
        const ChunkId chunk = static_cast<ChunkId>(rng.Uniform(24));
        if (op < 0.4) {
          const int tuples = 1 + static_cast<int>(rng.Uniform(8));
          cache.Insert(MakeChunk(gb, chunk, tuples),
                       static_cast<double>(rng.Uniform(100)),
                       rng.Bernoulli(0.5) ? ChunkSource::kBackend
                                          : ChunkSource::kCacheComputed);
        } else if (op < 0.6) {
          if (ChunkRef ref = cache.GetRef({gb, chunk})) {
            // The ref must be internally consistent even if the entry is
            // concurrently replaced or evicted.
            ASSERT_EQ(ref->gb, gb);
            ASSERT_EQ(ref->chunk, chunk);
          }
        } else if (op < 0.7) {
          cache.Boost({gb, chunk}, rng.UniformDouble() * 100.0);
        } else if (op < 0.8) {
          cache.Contains({gb, chunk});
        } else if (op < 0.9) {
          cache.Insert(MakeChunk(own_gb, chunk, 2),
                       static_cast<double>(rng.Uniform(100)),
                       ChunkSource::kBackend);
          const ChunkData* pinned = cache.GetPinned({own_gb, chunk});
          if (pinned != nullptr) {
            ASSERT_EQ(pinned->gb, own_gb);
            cache.Unpin({own_gb, chunk});
          }
        } else {
          cache.Remove({own_gb, chunk});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(cache.ValidateInvariants());
  // Accounting adds up after the storm.
  int64_t bytes = 0;
  size_t entries = 0;
  cache.ForEach([&](const CacheEntryInfo& info) {
    bytes += info.bytes;
    ++entries;
  });
  EXPECT_EQ(bytes, cache.bytes_used());
  EXPECT_EQ(entries, cache.num_entries());
  EXPECT_LE(cache.bytes_used(), cache.capacity_bytes());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts - stats.evictions,
            static_cast<int64_t>(cache.num_entries()));
}

TEST(CacheConcurrencyTest, ConcurrentReplaceInPlaceKeepsOneEntry) {
  // Hammer one key with re-inserts of different sizes from all threads
  // while readers copy it: exactly one entry must remain, with coherent
  // data and accounting.
  BenefitPolicy policy;
  ChunkCache cache(1000, 10, &policy, /*num_shards=*/4);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 101);
      for (int i = 0; i < 2000; ++i) {
        const int tuples = 1 + static_cast<int>(rng.Uniform(9));
        cache.Insert(MakeChunk(7, 3, tuples), 1.0, ChunkSource::kBackend);
        if (ChunkRef ref = cache.GetRef({7, 3})) {
          ASSERT_EQ(ref->LogicalBytes(10),
                    static_cast<int64_t>(ref->cells.size()) * 10);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_TRUE(cache.ValidateInvariants());
  const ChunkData* data = cache.Peek({7, 3});
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(cache.bytes_used(), data->LogicalBytes(10));
}

// A chunk whose every cell records `version`, with a version-dependent cell
// count, so a reader can tell a torn or mutated chunk from a whole one.
ChunkData VersionedChunk(GroupById gb, ChunkId chunk, int version) {
  ChunkData d;
  d.gb = gb;
  d.chunk = chunk;
  for (int i = 0; i < 1 + version % 5; ++i) {
    Cell c;
    c.values[0] = i;
    c.values[1] = chunk;
    InitCellAggregates(c, static_cast<double>(version));
    d.cells.push_back(c);
  }
  return d;
}

bool WholeVersionedChunk(const ChunkData& d) {
  if (d.cells.empty()) return false;
  const double version = d.cells[0].measure;
  if (static_cast<int>(d.cells.size()) != 1 + static_cast<int>(version) % 5) {
    return false;
  }
  for (size_t i = 0; i < d.cells.size(); ++i) {
    const Cell& c = d.cells[i];
    if (c.values[0] != static_cast<int32_t>(i) || c.values[1] != d.chunk ||
        c.measure != version) {
      return false;
    }
  }
  return true;
}

bool SameBits(const ChunkData& a, const ChunkData& b) {
  return a.gb == b.gb && a.chunk == b.chunk &&
         a.cells.size() == b.cells.size() &&
         std::memcmp(a.cells.data(), b.cells.data(),
                     a.cells.size() * sizeof(Cell)) == 0;
}

// Counts demotions; the copies it is handed are dropped.
class CountingSink : public DemotionSink {
 public:
  void OnDemote(const CacheEntryInfo& info, ChunkData&& data) override {
    (void)info;
    if (WholeVersionedChunk(data)) ++whole;
    ++demoted;
  }
  void OnErase(const CacheKey& key) override { (void)key; }
  std::atomic<int64_t> demoted{0};
  std::atomic<int64_t> whole{0};
};

// Readers hold GetRef results while writers replace, remove and evict the
// same keys: every held ref must stay whole and bit-identical to the
// snapshot taken when it was read. Readers also pin keys the writers never
// remove, so pins and replace-in-place interleave too. The refs still held
// when the readers finish are checked once more after their keys have all
// been removed.
TEST(CacheConcurrencyTest, HeldRefsSurviveInsertRemoveEvictStorm) {
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kOps = 3000;
  constexpr int kHeld = 8;
  constexpr GroupById kPinnedGb = 2;  // inserted over, never removed
  BenefitPolicy policy;
  // 60 tuples of room in 4 shards: the writers' inserts keep evicting.
  ChunkCache cache(600, 10, &policy, /*num_shards=*/4);
  CountingSink sink;
  cache.set_demotion_sink(&sink);

  std::atomic<int64_t> refs_read{0};
  std::atomic<int> arrived{0};
  auto start_together = [&] {
    ++arrived;
    while (arrived.load() < kReaders + kWriters) std::this_thread::yield();
  };
  std::mutex survivors_mutex;
  std::vector<std::pair<ChunkRef, ChunkData>> survivors;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      start_together();
      Rng rng(static_cast<uint64_t>(w) + 500);
      for (int i = 0; i < kOps; ++i) {
        const GroupById gb = static_cast<GroupById>(rng.Uniform(3));
        const ChunkId chunk = static_cast<ChunkId>(rng.Uniform(12));
        if (gb != kPinnedGb && rng.Bernoulli(0.25)) {
          cache.Remove({gb, chunk});
        } else {
          cache.Insert(VersionedChunk(gb, chunk, i * kWriters + w),
                       static_cast<double>(rng.Uniform(50)),
                       ChunkSource::kBackend);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      start_together();
      Rng rng(static_cast<uint64_t>(r) + 900);
      std::vector<std::pair<ChunkRef, ChunkData>> held(kHeld);
      for (int i = 0; i < kOps; ++i) {
        const GroupById gb = static_cast<GroupById>(rng.Uniform(3));
        const ChunkId chunk = static_cast<ChunkId>(rng.Uniform(12));
        if (gb == kPinnedGb && rng.Bernoulli(0.3)) {
          if (const ChunkData* pinned = cache.GetPinned({gb, chunk})) {
            ASSERT_TRUE(WholeVersionedChunk(*pinned));
            cache.Unpin({gb, chunk});
          }
          continue;
        }
        auto& [ref, snapshot] = held[static_cast<size_t>(i % kHeld)];
        if (ref != nullptr) {
          // Held across up to kHeld further reads and the writers' storm.
          ASSERT_TRUE(SameBits(*ref, snapshot));
        }
        ref = cache.GetRef({gb, chunk});
        if (ref == nullptr) continue;
        ++refs_read;
        ASSERT_TRUE(WholeVersionedChunk(*ref));
        ASSERT_EQ(ref->gb, gb);
        ASSERT_EQ(ref->chunk, chunk);
        snapshot = *ref;
      }
      std::lock_guard<std::mutex> lock(survivors_mutex);
      for (auto& entry : held) {
        if (entry.first != nullptr) survivors.push_back(std::move(entry));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(survivors.empty());
  for (const auto& [ref, snapshot] : survivors) {
    cache.Remove({ref->gb, ref->chunk});
    EXPECT_EQ(cache.Peek({ref->gb, ref->chunk}), nullptr);
  }
  for (const auto& [ref, snapshot] : survivors) {
    EXPECT_TRUE(SameBits(*ref, snapshot));
  }
  cache.set_demotion_sink(nullptr);

  EXPECT_TRUE(cache.ValidateInvariants());
  EXPECT_EQ(cache.TotalPinCount(), 0);
  EXPECT_LE(cache.bytes_used(), cache.capacity_bytes());
  // The storm really churned: refs were read and demoted copies were whole.
  EXPECT_GT(refs_read.load(), 0);
  EXPECT_GT(sink.demoted.load(), 0);
  EXPECT_EQ(sink.whole.load(), sink.demoted.load());
}

// ---------------------------------------------------------------------------
// Single-flight coalescing.
// ---------------------------------------------------------------------------

TEST(SingleFlightTest, ExactlyOneLeaderAndFollowersGetPublishedData) {
  constexpr int kThreads = 6;
  SingleFlight sf;
  std::atomic<int> leaders{0};
  std::atomic<int> followers_ok{0};
  std::atomic<int> arrived{0};
  const CacheKey key{2, 5};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::shared_ptr<SingleFlight::Slot> slot = sf.JoinOrLead(key);
      // Barrier: everyone joins the flight before the leader publishes,
      // otherwise a late thread would simply start (and lead) a new one.
      ++arrived;
      while (arrived.load() < kThreads) std::this_thread::yield();
      if (slot == nullptr) {
        ++leaders;
        sf.Publish(key, std::make_shared<const ChunkData>(MakeChunk(2, 5, 4)));
      } else {
        ChunkRef data;
        if (sf.Await(*slot, &data) && data->tuple_count() == 4) ++followers_ok;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(followers_ok.load(), kThreads - 1);
  EXPECT_EQ(sf.coalesced(), kThreads - 1);
  // The flight is over: the next caller leads again.
  EXPECT_EQ(sf.JoinOrLead(key), nullptr);
  sf.Fail(key);
}

// Followers do not get copies: every one holds the leader's own chunk.
TEST(SingleFlightTest, FollowersReceiveTheLeadersExactChunk) {
  constexpr int kFollowers = 4;
  SingleFlight sf;
  const CacheKey key{3, 7};
  ASSERT_EQ(sf.JoinOrLead(key), nullptr);  // this test leads
  std::vector<std::shared_ptr<SingleFlight::Slot>> slots;
  for (int f = 0; f < kFollowers; ++f) {
    slots.push_back(sf.JoinOrLead(key));
    ASSERT_NE(slots.back(), nullptr);
  }
  std::vector<ChunkRef> received(kFollowers);
  std::vector<std::thread> followers;
  for (int f = 0; f < kFollowers; ++f) {
    followers.emplace_back([&, f] {
      EXPECT_TRUE(sf.Await(*slots[static_cast<size_t>(f)],
                           &received[static_cast<size_t>(f)]));
    });
  }
  const ChunkRef published =
      std::make_shared<const ChunkData>(VersionedChunk(3, 7, 4));
  sf.Publish(key, published);
  for (std::thread& t : followers) t.join();
  for (const ChunkRef& got : received) {
    EXPECT_EQ(got.get(), published.get());
  }
  EXPECT_EQ(sf.coalesced(), kFollowers);
}

TEST(SingleFlightTest, FailedFlightWakesFollowersEmptyHanded) {
  SingleFlight sf;
  const CacheKey key{1, 1};
  ASSERT_EQ(sf.JoinOrLead(key), nullptr);  // this test leads
  std::shared_ptr<SingleFlight::Slot> slot = sf.JoinOrLead(key);
  ASSERT_NE(slot, nullptr);
  std::thread follower([&] {
    ChunkRef data;
    EXPECT_FALSE(sf.Await(*slot, &data));
  });
  sf.Fail(key);
  follower.join();
  EXPECT_EQ(sf.coalesced(), 0);
}

TEST(SingleFlightTest, DistinctKeysAreIndependentFlights) {
  SingleFlight sf;
  EXPECT_EQ(sf.JoinOrLead({1, 1}), nullptr);
  EXPECT_EQ(sf.JoinOrLead({1, 2}), nullptr);  // different chunk: own flight
  EXPECT_NE(sf.JoinOrLead({1, 1}), nullptr);
  sf.Publish({1, 1}, std::make_shared<const ChunkData>(MakeChunk(1, 1, 1)));
  sf.Fail({1, 2});
}

// ---------------------------------------------------------------------------
// Engine-level tests over a shared sharded cache.
// ---------------------------------------------------------------------------

constexpr int64_t kBigCache = 1'000'000;

struct EngineRig {
  TestEnv env;
  std::unique_ptr<VcmcStrategy> strategy;
  std::unique_ptr<ConcurrentQueryEngine> concurrent;
};

EngineRig MakeRig(int num_shards) {
  EngineRig rig;
  rig.env = MakeTestEnv(MakeSmallCube(), 0.7, 83, kBigCache,
                        /*two_level_policy=*/true, /*bytes_per_tuple=*/10,
                        num_shards);
  rig.strategy = std::make_unique<VcmcStrategy>(rig.env.cube.grid.get(),
                                                rig.env.cache.get(),
                                                rig.env.size_model.get());
  rig.env.cache->AddListener(rig.strategy->listener());
  TestEnv* env = &rig.env;
  VcmcStrategy* strategy = rig.strategy.get();
  rig.concurrent = std::make_unique<ConcurrentQueryEngine>([env, strategy] {
    return std::make_unique<QueryEngine>(
        env->cube.grid.get(), env->cache.get(), strategy, env->backend.get(),
        env->benefit.get(), env->clock.get(), QueryEngine::Config());
  });
  return rig;
}

std::vector<QueryStreamEntry> MakeStream(const TestEnv& env, int n,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryStreamEntry> stream;
  stream.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const GroupById gb =
        static_cast<GroupById>(rng.Uniform(env.lattice().num_groupbys()));
    stream.push_back(QueryStreamEntry{
        Query::WholeLevel(env.schema(), env.lattice().LevelOf(gb)),
        QueryKind::kRandom});
  }
  return stream;
}

TEST(ParallelRunnerTest, ParallelTotalsMatchSerialOnWarmCache) {
  EngineRig rig = MakeRig(/*num_shards=*/16);
  const std::vector<QueryStreamEntry> stream = MakeStream(rig.env, 60, 17);

  // Two warm passes bring the (ample) cache to a fixed point: pass one
  // caches every backend fetch, pass two caches every aggregated result.
  // After that, query outcomes are order-independent.
  ParallelWorkloadRunner serial(rig.concurrent.get(), /*num_threads=*/1);
  serial.Run(stream);
  serial.Run(stream);

  const WorkloadTotals want = serial.Run(stream);
  EXPECT_EQ(want.chunks_backend, 0);  // warm: nothing reaches the backend

  ParallelWorkloadRunner parallel(rig.concurrent.get(), /*num_threads=*/4);
  std::vector<QueryStats> per_query;
  const WorkloadTotals got = parallel.Run(stream, &per_query);

  EXPECT_EQ(per_query.size(), stream.size());
  EXPECT_EQ(got.queries, want.queries);
  EXPECT_EQ(got.complete_hits, want.complete_hits);
  EXPECT_EQ(got.chunks_requested, want.chunks_requested);
  EXPECT_EQ(got.chunks_direct, want.chunks_direct);
  EXPECT_EQ(got.chunks_aggregated, want.chunks_aggregated);
  EXPECT_EQ(got.chunks_backend, want.chunks_backend);
  EXPECT_EQ(got.chunks_coalesced, want.chunks_coalesced);
  EXPECT_EQ(got.chunks_unavailable, want.chunks_unavailable);
  EXPECT_EQ(got.degraded_complete, want.degraded_complete);
  EXPECT_EQ(got.degraded_partial, want.degraded_partial);
  EXPECT_EQ(got.backend_attempts, want.backend_attempts);
}

TEST(ParallelRunnerTest, ColdParallelRunAnswersEveryChunk) {
  EngineRig rig = MakeRig(/*num_shards=*/16);
  const std::vector<QueryStreamEntry> stream = MakeStream(rig.env, 80, 29);
  ParallelWorkloadRunner runner(rig.concurrent.get(), /*num_threads=*/4);
  const WorkloadTotals totals = runner.Run(stream);
  EXPECT_EQ(totals.queries, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(totals.chunks_unavailable, 0);
  EXPECT_EQ(totals.chunks_direct + totals.chunks_aggregated +
                totals.chunks_backend,
            totals.chunks_requested);
  // Coalesced fetches are a subset of backend-answered chunks.
  EXPECT_LE(totals.chunks_coalesced, totals.chunks_backend);
}

// ---------------------------------------------------------------------------
// backend_ms attribution: across an entire faulty workload, every simulated
// nanosecond the backend path charged appears in exactly one query's
// backend_ms — the per-query sums reconstruct the SimClock total exactly.
// ---------------------------------------------------------------------------

TEST(BackendMsAttributionTest, PerQueryBackendMsSumsToSimClockTotal) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.7, 47, /*capacity=*/4000,
                            /*two_level_policy=*/true);
  FaultConfig faults;
  faults.transient_error_rate = 0.15;
  faults.timeout_rate = 0.05;
  faults.partial_result_rate = 0.10;
  faults.latency_spike_rate = 0.10;
  faults.seed = 7;
  FaultInjectingBackend faulty(env.backend.get(), faults, env.clock.get());
  VcmcStrategy strategy(env.cube.grid.get(), env.cache.get(),
                        env.size_model.get());
  env.cache->AddListener(strategy.listener());
  QueryEngine::Config config;
  config.retry.max_attempts = 4;
  QueryEngine engine(env.cube.grid.get(), env.cache.get(), &strategy, &faulty,
                     env.benefit.get(), env.clock.get(), config);

  const int64_t clock_before = env.clock->TotalNanos();
  Rng rng(99);
  double total_backend_ms = 0.0;
  for (int i = 0; i < 120; ++i) {
    const GroupById gb =
        static_cast<GroupById>(rng.Uniform(env.lattice().num_groupbys()));
    Query q = Query::WholeLevel(env.schema(), env.lattice().LevelOf(gb));
    QueryStats stats;
    engine.ExecuteQuery(q, &stats);
    total_backend_ms += stats.backend_ms;
  }
  const double clock_ms =
      static_cast<double>(env.clock->TotalNanos() - clock_before) / 1e6;
  // Exact up to double rounding in the per-query ns -> ms conversions.
  EXPECT_NEAR(total_backend_ms, clock_ms, 1e-6 * (clock_ms + 1.0));
  EXPECT_GT(clock_ms, 0.0);
}

}  // namespace
}  // namespace aac
