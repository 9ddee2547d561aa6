#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cache/chunk_cache.h"
#include "cache/disk_tier.h"
#include "cache/warm_tier.h"
#include "core/no_aggregation.h"
#include "core/query_engine.h"
#include "storage/chunk_codec.h"
#include "storage/chunk_data.h"
#include "test_env.h"
#include "test_util.h"
#include "util/deadline.h"
#include "workload/experiment.h"
#include "workload/workload_runner.h"

namespace aac {
namespace {

// Logical bytes per tuple for the tiered environments (the paper's 20-byte
// tuples, doubled so compression ratios over the modeled size are clearly
// above 1 on this tiny cube).
constexpr int64_t kTupleBytes = 40;

// Bit-for-bit structural equality (codec contract, stronger than
// ChunkDataEquals' epsilon compare).
::testing::AssertionResult BitIdentical(const ChunkData& a,
                                        const ChunkData& b) {
  if (a.gb != b.gb || a.chunk != b.chunk) {
    return ::testing::AssertionFailure() << "key mismatch";
  }
  if (a.cells.size() != b.cells.size()) {
    return ::testing::AssertionFailure()
           << "cell count " << a.cells.size() << " vs " << b.cells.size();
  }
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const Cell& x = a.cells[i];
    const Cell& y = b.cells[i];
    for (size_t d = 0; d < kMaxDims; ++d) {
      if (x.values[d] != y.values[d]) {
        return ::testing::AssertionFailure() << "cell " << i << " coords";
      }
    }
    if (x.count != y.count ||
        std::bit_cast<uint64_t>(x.measure) !=
            std::bit_cast<uint64_t>(y.measure) ||
        std::bit_cast<uint64_t>(x.min) != std::bit_cast<uint64_t>(y.min) ||
        std::bit_cast<uint64_t>(x.max) != std::bit_cast<uint64_t>(y.max)) {
      return ::testing::AssertionFailure() << "cell " << i << " aggregates";
    }
  }
  return ::testing::AssertionSuccess();
}

// A warm tier wired as the cache's demotion sink over the standard test
// environment. Hot capacity is deliberately tiny so inserts demote.
struct TieredEnv {
  TestEnv env;
  std::unique_ptr<DiskTier> disk;
  std::unique_ptr<WarmTier> warm;
};

TieredEnv MakeTieredEnv(int64_t hot_capacity, int64_t warm_capacity,
                        double gate = 0.0, int64_t disk_capacity = 0,
                        const std::string& disk_path = "") {
  TieredEnv t;
  t.env = MakeTestEnv(MakeThreeDimCube(), /*density=*/0.5, /*seed=*/11,
                      hot_capacity, /*two_level_policy=*/false, kTupleBytes);
  if (disk_capacity > 0) {
    DiskTier::Config dc;
    dc.path = disk_path;
    dc.capacity_bytes = disk_capacity;
    t.disk = std::make_unique<DiskTier>(dc);
    EXPECT_TRUE(t.disk->Open());
  }
  WarmTier::Config wc;
  wc.capacity_bytes = warm_capacity;
  wc.num_dims = t.env.schema().num_dims();
  wc.min_benefit_per_byte = gate;
  wc.disk = t.disk.get();
  t.warm = std::make_unique<WarmTier>(wc);
  t.env.cache->set_demotion_sink(t.warm.get());
  return t;
}

// Ground truth for chunk (gb, c) straight from the backend.
ChunkData BackendTruth(TestEnv& env, GroupById gb, ChunkId chunk) {
  std::vector<ChunkData> data =
      env.backend->ExecuteChunkQuery(gb, {chunk}).chunks;
  return std::move(data[0]);
}

// Caches every base-level chunk; with a scarce hot tier this demotes a
// prefix of them into the warm tier.
void FillBase(TieredEnv& t) {
  const GroupById base = t.env.lattice().base_id();
  for (ChunkId c = 0; c < t.env.grid().NumChunks(base); ++c) {
    CacheChunkFromBackend(t.env, base, c);
  }
}

// A base chunk resident in the warm tier and NOT in the hot tier (-1 if
// none): the natural promotion candidate.
ChunkId FindWarmOnly(TieredEnv& t) {
  const GroupById base = t.env.lattice().base_id();
  for (ChunkId c = 0; c < t.env.grid().NumChunks(base); ++c) {
    if (t.warm->Contains({base, c}) && !t.env.cache->Contains({base, c})) {
      return c;
    }
  }
  return -1;
}

// The demotion pipeline's ledger: every hot eviction with a sink installed
// is exactly one warm-tier offer, and the demoted bytes leave the hot
// budget atomically (bytes_used never exceeds capacity, invariants hold on
// both tiers throughout).
TEST(TieredCacheTest, DemotionLedgerMatchesAcrossTiers) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500,
                              /*warm_capacity=*/1 << 20);
  const GroupById base = t.env.lattice().base_id();
  ASSERT_GT(t.env.grid().NumChunks(base), 3);
  for (ChunkId c = 0; c < t.env.grid().NumChunks(base); ++c) {
    CacheChunkFromBackend(t.env, base, c);
    EXPECT_LE(t.env.cache->bytes_used(), t.env.cache->capacity_bytes());
  }
  const CacheStats hot = t.env.cache->stats();
  const WarmTierStats warm = t.warm->stats();
  EXPECT_GT(hot.demotions, 0);
  EXPECT_EQ(hot.demotions, warm.offers);
  EXPECT_EQ(hot.demotions, hot.evictions);  // every eviction was demoted
  EXPECT_GT(hot.demoted_bytes, 0);
  EXPECT_EQ(hot.demoted_bytes, warm.demoted_raw_bytes);  // no gate: all in
  EXPECT_EQ(warm.admits, warm.offers);
  EXPECT_GT(warm.CompressionRatio(), 1.0);
  EXPECT_LE(t.warm->bytes_used(), t.warm->capacity_bytes());
  EXPECT_TRUE(t.env.cache->ValidateInvariants());
  EXPECT_TRUE(t.warm->ValidateInvariants());
}

// The benefit-per-byte gate drops junk instead of compressing it.
TEST(TieredCacheTest, DemotionGateRejectsLowBenefitVictims) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500,
                              /*warm_capacity=*/1 << 20, /*gate=*/1e18);
  FillBase(t);
  const WarmTierStats warm = t.warm->stats();
  EXPECT_GT(warm.offers, 0);
  EXPECT_EQ(warm.gate_rejected, warm.offers);
  EXPECT_EQ(warm.admits, 0);
  EXPECT_EQ(t.warm->num_entries(), 0u);
  EXPECT_EQ(t.warm->bytes_used(), 0);
  EXPECT_TRUE(t.warm->ValidateInvariants());
}

// Demote -> Probe -> promote: the chunk that comes back out of the warm
// tier is bit-identical to what went in, and promotion makes residency
// single-tier again (the hot insert's OnErase purges the warm copy).
TEST(TieredCacheTest, PromotionRoundTripIsBitIdenticalAndSingleTier) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500,
                              /*warm_capacity=*/1 << 20);
  FillBase(t);
  const GroupById base = t.env.lattice().base_id();
  const ChunkId victim = FindWarmOnly(t);
  ASSERT_GE(victim, 0);
  const ChunkData truth = BackendTruth(t.env, base, victim);

  WarmProbeResult probe;
  ASSERT_TRUE(t.warm->Probe({base, victim}, nullptr, &probe));
  EXPECT_TRUE(BitIdentical(truth, probe.data));
  EXPECT_FALSE(probe.from_disk);
  EXPECT_GT(probe.decode_ns, 0);
  EXPECT_GT(probe.info.benefit, 0.0);

  // Promote, as the engine's miss path does.
  ASSERT_TRUE(t.env.cache->Insert(probe.data, probe.info.benefit,
                                  probe.info.source));
  EXPECT_TRUE(t.env.cache->Contains({base, victim}));
  EXPECT_FALSE(t.warm->Contains({base, victim}));  // purged by OnErase
  EXPECT_GT(t.warm->stats().erased, 0);
  EXPECT_TRUE(t.env.cache->ValidateInvariants());
  EXPECT_TRUE(t.warm->ValidateInvariants());
}

// An expired deadline turns a would-be warm hit into a miss: overloaded
// queries never pay for a decode they cannot use.
TEST(TieredCacheTest, ExpiredDeadlineProbesMiss) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500,
                              /*warm_capacity=*/1 << 20);
  FillBase(t);
  const GroupById base = t.env.lattice().base_id();
  const ChunkId victim = FindWarmOnly(t);
  ASSERT_GE(victim, 0);

  ExecContext ctx;
  ctx.deadline = Deadline::AfterNanos(-1);  // already expired
  WarmProbeResult probe;
  EXPECT_FALSE(t.warm->Probe({base, victim}, &ctx, &probe));
  EXPECT_GT(t.warm->stats().misses, 0);
  // The entry is untouched and still probeable without a deadline.
  WarmProbeResult retry;
  EXPECT_TRUE(t.warm->Probe({base, victim}, nullptr, &retry));
}

// Warm-tier CLOCK victims spill to the disk tier and promote back from it
// bit-identically, with the probe reporting disk provenance.
TEST(TieredCacheTest, WarmEvictionSpillsToDiskAndPromotesBack) {
  const std::string path = testing::TempDir() + "/aac_spill_test.bin";
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500, /*warm_capacity=*/512,
                              /*gate=*/0.0, /*disk_capacity=*/1 << 20, path);
  const GroupById base = t.env.lattice().base_id();
  const ChunkId chunks = t.env.grid().NumChunks(base);
  std::vector<ChunkData> truth;
  for (ChunkId c = 0; c < chunks; ++c) {
    truth.push_back(BackendTruth(t.env, base, c));
    CacheChunkFromBackend(t.env, base, c);
  }
  const WarmTierStats warm = t.warm->stats();
  EXPECT_GT(warm.evictions, 0);
  EXPECT_GT(warm.spills, 0);
  const DiskTierStats disk = t.disk->stats();
  EXPECT_EQ(disk.admits, warm.spills);
  EXPECT_GT(t.disk->num_entries(), 0u);
  EXPECT_TRUE(t.disk->ValidateInvariants());

  // Every chunk that lives on disk (not hot, not warm RAM) must probe back
  // bit-identically with disk provenance.
  int promoted_from_disk = 0;
  for (ChunkId c = 0; c < chunks; ++c) {
    const CacheKey key{base, c};
    if (t.env.cache->Contains(key) || !t.disk->Contains(key)) continue;
    WarmProbeResult probe;
    ASSERT_TRUE(t.warm->Probe(key, nullptr, &probe)) << "chunk " << c;
    EXPECT_TRUE(probe.from_disk);
    EXPECT_TRUE(BitIdentical(truth[static_cast<size_t>(c)], probe.data));
    ++promoted_from_disk;
  }
  EXPECT_GT(promoted_from_disk, 0);
  EXPECT_GT(t.warm->stats().disk_hits, 0);
  EXPECT_GT(t.disk->stats().hits, 0);
  EXPECT_TRUE(t.warm->ValidateInvariants());
  std::remove(path.c_str());
}

// Pins the warm tier's CLOCK victim order and the disk tier's own CLOCK
// over a seeded stream of demotions, warm hits, disk reads and erases.
// Every blob has the same encoded size, so each admission past the warm
// budget spills exactly one victim: the order in which keys first appear
// on disk is the warm tier's eviction order. The disk budget holds three
// extents, so which keys survive there pins the disk tier's sweep.
TEST(TieredCacheTest, WarmSpillOrderAndDiskSurvivorsArePinned) {
  const std::string path = testing::TempDir() + "/aac_spill_order_test.bin";
  constexpr int kDims = 2;
  auto chunk = [](ChunkId c) {
    ChunkData data;
    data.gb = 1;
    data.chunk = c;
    for (int i = 0; i < 4; ++i) {
      Cell cell;
      cell.values[0] = i;
      cell.values[1] = 2 * i;
      InitCellAggregates(cell, 1.0 + i);
      data.cells.push_back(cell);
    }
    return data;
  };
  std::vector<uint8_t> blob;
  EncodeChunk(kDims, chunk(0), &blob);
  const auto blob_bytes = static_cast<int64_t>(blob.size());
  int64_t extent_bytes = 0;
  {
    DiskTier::Config probe_config;
    probe_config.path = path;
    DiskTier probe(probe_config);
    ASSERT_TRUE(probe.Open());
    ASSERT_TRUE(probe.Admit(CacheEntryInfo{{1, 0}, 1, 1.0}, blob));
    extent_bytes = probe.bytes_used();
  }

  DiskTier::Config dc;
  dc.path = path;
  dc.capacity_bytes = 3 * extent_bytes + extent_bytes / 2;
  DiskTier disk(dc);
  ASSERT_TRUE(disk.Open());
  WarmTier::Config wc;
  wc.capacity_bytes = 4 * blob_bytes + blob_bytes / 2;
  wc.num_dims = kDims;
  wc.disk = &disk;
  WarmTier warm(wc);

  std::mt19937 rng(4242);
  auto pick = [&](uint32_t n) { return static_cast<int>(rng() % n); };
  constexpr ChunkId kKeys = 14;
  std::vector<bool> on_disk(kKeys, false);
  std::string spill_order;
  for (int step = 0; step < 120; ++step) {
    const ChunkId c = pick(kKeys);
    const CacheKey key{1, c};
    const int op = pick(10);
    if (op < 6) {
      CacheEntryInfo info;
      info.key = key;
      info.bytes = 160;
      info.benefit = static_cast<double>(pick(3000));
      warm.OnDemote(info, chunk(c));
    } else if (op < 9) {
      WarmProbeResult probe;
      warm.Probe(key, nullptr, &probe);
    } else {
      warm.OnErase(key);
    }
    for (ChunkId k = 0; k < kKeys; ++k) {
      const bool now = disk.Contains({1, k});
      if (now && !on_disk[static_cast<size_t>(k)]) {
        spill_order += std::to_string(k) + " ";
      }
      on_disk[static_cast<size_t>(k)] = now;
    }
  }
  std::string disk_survivors;
  std::string warm_survivors;
  for (ChunkId k = 0; k < kKeys; ++k) {
    if (disk.Contains({1, k})) disk_survivors += std::to_string(k) + " ";
    if (warm.Contains({1, k}) && !disk.Contains({1, k})) {
      warm_survivors += std::to_string(k) + " ";
    }
  }
  EXPECT_EQ(spill_order,
            "8 7 6 3 13 12 6 7 0 13 12 11 0 1 13 10 3 11 7 5 1 4 8 9 5 12 2 8 "
            "13 3 10 7 2 9 0 5 7 11 9 12 8 6 1 10 13 7 11 2 0 6 12 9 13 1 7 6 "
            "0 ");
  EXPECT_EQ(disk_survivors, "0 6 7 ");
  EXPECT_EQ(warm_survivors, "5 8 11 12 ");
  EXPECT_EQ(warm.stats().evictions, 57);
  EXPECT_EQ(warm.stats().spills, 57);
  EXPECT_EQ(disk.stats().evictions, 49);
  EXPECT_TRUE(warm.ValidateInvariants());
  EXPECT_TRUE(disk.ValidateInvariants());
  std::remove(path.c_str());
}

// The torn-spill regression: a spill file truncated mid-extent (the crash
// shape) must read back as a plain miss — torn_reads counted, index entry
// dropped, no crash, no garbage chunk.
TEST(TieredCacheTest, TornSpillFileReadsAsMiss) {
  const std::string path = testing::TempDir() + "/aac_torn_test.bin";
  DiskTier::Config dc;
  dc.path = path;
  dc.capacity_bytes = 1 << 20;
  DiskTier disk(dc);
  ASSERT_TRUE(disk.Open());

  // Admit one real encoded chunk.
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.5, 11, 1 << 20);
  const GroupById base = env.lattice().base_id();
  ChunkData data = BackendTruth(env, base, 0);
  std::vector<uint8_t> blob;
  EncodeChunk(env.schema().num_dims(), data, &blob);
  CacheEntryInfo info;
  info.key = {base, 0};
  info.bytes = data.LogicalBytes(kTupleBytes);
  info.benefit = 100.0;
  ASSERT_TRUE(disk.Admit(info, blob));
  ASSERT_TRUE(disk.Contains({base, 0}));

  // Tear the file: truncate through the middle of the extent's payload.
  ASSERT_EQ(truncate(path.c_str(), 64 + static_cast<long>(blob.size()) / 2),
            0);

  std::vector<uint8_t> read_blob;
  CacheEntryInfo read_info;
  EXPECT_FALSE(disk.Read({base, 0}, &read_blob, &read_info));
  const DiskTierStats stats = disk.stats();
  EXPECT_EQ(stats.torn_reads, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_FALSE(disk.Contains({base, 0}));  // entry dropped
  EXPECT_EQ(disk.bytes_used(), 0);
  EXPECT_TRUE(disk.ValidateInvariants());
  std::remove(path.c_str());
}

// A flipped byte inside an otherwise intact extent is equally torn: the
// blob checksum rejects it before the codec ever sees the bytes.
TEST(TieredCacheTest, CorruptedExtentReadsAsMiss) {
  const std::string path = testing::TempDir() + "/aac_corrupt_test.bin";
  DiskTier::Config dc;
  dc.path = path;
  dc.capacity_bytes = 1 << 20;
  DiskTier disk(dc);
  ASSERT_TRUE(disk.Open());

  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.5, 11, 1 << 20);
  const GroupById base = env.lattice().base_id();
  ChunkData data = BackendTruth(env, base, 0);
  std::vector<uint8_t> blob;
  EncodeChunk(env.schema().num_dims(), data, &blob);
  CacheEntryInfo info;
  info.key = {base, 0};
  info.bytes = data.LogicalBytes(kTupleBytes);
  info.benefit = 100.0;
  ASSERT_TRUE(disk.Admit(info, blob));

  // Flip one payload byte through an independent handle.
  {
    FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64 + static_cast<long>(blob.size()) / 2, SEEK_SET),
              0);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(byte ^ 0x40, f);
    std::fclose(f);
  }

  std::vector<uint8_t> read_blob;
  CacheEntryInfo read_info;
  EXPECT_FALSE(disk.Read({base, 0}, &read_blob, &read_info));
  EXPECT_EQ(disk.stats().torn_reads, 1);
  EXPECT_FALSE(disk.Contains({base, 0}));
  std::remove(path.c_str());
}

// Invalidation reaches every tier: removing a key from the hot cache
// purges its warm-RAM and disk copies too, so stale data can never be
// promoted after a base-table update.
TEST(TieredCacheTest, RemovePurgesAllTiers) {
  const std::string path = testing::TempDir() + "/aac_purge_test.bin";
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500, /*warm_capacity=*/512,
                              /*gate=*/0.0, /*disk_capacity=*/1 << 20, path);
  FillBase(t);
  const GroupById base = t.env.lattice().base_id();
  const ChunkId chunks = t.env.grid().NumChunks(base);

  int purged_warm = 0;
  int purged_disk = 0;
  for (ChunkId c = 0; c < chunks; ++c) {
    const CacheKey key{base, c};
    const bool was_warm = t.warm->Contains(key);
    const bool was_disk = t.disk->Contains(key);
    // Remove reports hot-tier residency; it purges lower tiers regardless.
    t.env.cache->Remove(key);
    EXPECT_FALSE(t.env.cache->Contains(key));
    EXPECT_FALSE(t.warm->Contains(key));
    EXPECT_FALSE(t.disk->Contains(key));
    purged_warm += was_warm ? 1 : 0;
    purged_disk += was_disk ? 1 : 0;
  }
  EXPECT_GT(purged_warm + purged_disk, 0);  // the purge path really ran
  EXPECT_EQ(t.warm->num_entries(), 0u);
  EXPECT_EQ(t.warm->bytes_used(), 0);
  EXPECT_EQ(t.disk->num_entries(), 0u);
  EXPECT_TRUE(t.warm->ValidateInvariants());
  EXPECT_TRUE(t.disk->ValidateInvariants());
  std::remove(path.c_str());
}

// End-to-end through the engine: with a scarce hot tier, a repeated
// workload's second pass promotes from the warm tier (chunks_warm > 0) and
// still answers every query bit-identically to an untiered stack.
TEST(TieredCacheTest, EnginedWorkloadPromotesFromWarmTier) {
  ExperimentConfig config;
  config.data.num_tuples = 20'000;
  config.data.seed = 17;
  config.cache_fraction = 0.12;  // scarce: constant demotion
  // The warm tier holds encoded bytes, so a budget several times the hot
  // tier's is the realistic shape — here big enough that the repeated
  // levels' demoted working set survives until its second-pass
  // re-reference (the hot tier alone cannot even hold one level).
  config.warm_fraction = 40.0;
  Experiment exp(config);
  ASSERT_NE(exp.warm_tier(), nullptr);

  // A dashboard-style repeat workload over a few levels: every pass
  // re-asks the same whole-level queries, so pass-1 demotions become
  // pass-2 warm promotions.
  const std::vector<GroupById> levels = {
      exp.lattice().base_id(), 0,
      static_cast<GroupById>(exp.lattice().num_groupbys() / 2)};
  WorkloadTotals totals;
  for (int pass = 0; pass < 2; ++pass) {
    for (GroupById gb : levels) {
      const Query q =
          Query::WholeLevel(exp.schema(), exp.lattice().LevelOf(gb));
      QueryStats stats;
      QueryResult result = exp.engine().ExecuteQuery(q, &stats);
      ASSERT_EQ(result.status, ResultStatus::kOk);
      ASSERT_TRUE(result.complete());
      if (pass == 1) AccumulateStats(stats, &totals);
    }
  }
  EXPECT_GT(totals.chunks_warm, 0);
  EXPECT_GT(totals.decode_ms, 0.0);
  EXPECT_GT(exp.warm_tier()->stats().hits, 0);

  // Bit-identity: the most detailed whole-level answer matches a fresh
  // untiered experiment.
  ExperimentConfig plain = config;
  plain.warm_fraction = 0.0;
  plain.cache_fraction = 2.0;  // everything fits: no eviction at all
  Experiment fresh(plain);
  const Query verify = Query::WholeLevel(
      exp.schema(), exp.lattice().LevelOf(exp.lattice().base_id()));
  QueryResult got = exp.engine().ExecuteQuery(verify, nullptr);
  QueryResult want = fresh.engine().ExecuteQuery(verify, nullptr);
  ASSERT_EQ(got.status, ResultStatus::kOk);
  ASSERT_EQ(want.status, ResultStatus::kOk);
  auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
    return a.gb != b.gb ? a.gb < b.gb : a.chunk < b.chunk;
  };
  std::vector<ChunkData> got_chunks = CopyChunks(got.chunks);
  std::vector<ChunkData> want_chunks = CopyChunks(want.chunks);
  std::sort(got_chunks.begin(), got_chunks.end(), by_chunk);
  std::sort(want_chunks.begin(), want_chunks.end(), by_chunk);
  ASSERT_EQ(got_chunks.size(), want_chunks.size());
  const int nd = exp.schema().num_dims();
  for (size_t i = 0; i < got_chunks.size(); ++i) {
    EXPECT_TRUE(ChunkDataEquals(nd, &got_chunks[i], &want_chunks[i], 0.0));
  }

  EXPECT_TRUE(exp.cache().ValidateInvariants());
  EXPECT_TRUE(exp.warm_tier()->ValidateInvariants());
  EXPECT_EQ(exp.cache().TotalPinCount(), 0);
}

// EXPLAIN names the warm tier when the promotion path would serve a miss.
TEST(TieredCacheTest, ExplainShowsWarmPromotion) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/2500,
                              /*warm_capacity=*/1 << 20);
  FillBase(t);
  ASSERT_GE(FindWarmOnly(t), 0);

  NoAggregationStrategy strategy(t.env.cache.get());
  QueryEngine engine(t.env.cube.grid.get(), t.env.cache.get(), &strategy,
                     t.env.backend.get(), t.env.benefit.get(),
                     t.env.clock.get(), QueryEngine::Config());
  engine.set_warm_tier(t.warm.get());
  const GroupById base = t.env.lattice().base_id();
  const Query q = Query::WholeLevel(t.env.schema(),
                                    t.env.lattice().LevelOf(base));
  const std::string plan = engine.ExplainQuery(q);
  EXPECT_NE(plan.find("warm tier"), std::string::npos) << plan;

  // One warm-tier line per chunk execution then promotes.
  int64_t warm_routes = 0;
  for (size_t at = plan.find("warm tier"); at != std::string::npos;
       at = plan.find("warm tier", at + 1)) {
    ++warm_routes;
  }
  QueryStats stats;
  engine.ExecuteQuery(q, &stats);
  EXPECT_EQ(warm_routes, stats.chunks_warm + stats.chunks_disk) << plan;
}

// The satellite-4 race, run under TSan via the "tiered"+"concurrency"
// labels: threads race to promote the same warm chunk. Contract: every
// probe in a round hits; when probes overlap, followers coalesce onto the
// leader's single decode; all promoters end up pinning the SAME hot entry;
// and after the storm nothing stays pinned and both tiers' invariants
// hold. Rounds repeat until at least one coalesced decode was observed
// (barrier-released threads make that near-certain quickly).
TEST(TieredCacheTest, ConcurrentPromotersCoalesceOntoOneDecode) {
  TieredEnv t = MakeTieredEnv(/*hot_capacity=*/64 << 20,
                              /*warm_capacity=*/64 << 20);
  const GroupById base = t.env.lattice().base_id();
  const CacheKey key{base, 0};
  // A big synthetic chunk: its decode takes long enough that — even on a
  // single core — the OS preempts the leader mid-decode and followers land
  // inside the flight window. (The real backend chunks of the tiny test
  // cube decode in microseconds, far below a scheduling quantum.)
  ChunkData truth;
  truth.gb = base;
  truth.chunk = 0;
  truth.cells.reserve(60'000);
  for (int32_t i = 0; i < 60'000; ++i) {
    Cell c;
    c.values[0] = i / 100;
    c.values[1] = i % 100;
    c.values[2] = (i * 7) % 13;
    InitCellAggregates(c, static_cast<double>(i % 977));
    truth.cells.push_back(c);
  }
  CanonicalizeChunkData(t.env.schema().num_dims(), &truth);

  CacheEntryInfo info;
  info.key = key;
  info.bytes = truth.LogicalBytes(kTupleBytes);
  info.benefit = 500.0;
  info.source = ChunkSource::kBackend;

  constexpr int kThreads = 4;
  constexpr int kMaxRounds = 200;
  int64_t coalesced_total = 0;

  for (int round = 0; round < kMaxRounds; ++round) {
    // (Re-)demote the chunk into the warm tier.
    t.env.cache->Remove(key);
    ChunkData copy = truth;
    t.warm->OnDemote(info, std::move(copy));
    ASSERT_TRUE(t.warm->Contains(key));
    const WarmTierStats before = t.warm->stats();

    std::atomic<int> at_probe{0};
    std::atomic<int> at_promote{0};
    std::atomic<int> hits{0};
    std::atomic<bool> bit_mismatch{false};
    std::vector<const ChunkData*> pinned(kThreads, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        // Barrier 1: all threads probe together (maximizes decode overlap
        // and keeps the warm entry resident for the whole probe phase).
        ++at_probe;
        while (at_probe.load() < kThreads) std::this_thread::yield();
        WarmProbeResult probe;
        const bool hit = t.warm->Probe(key, nullptr, &probe);
        if (hit) {
          ++hits;
          if (!BitIdentical(truth, probe.data)) bit_mismatch = true;
        }
        // Barrier 2: no promotion (whose OnErase purges the warm entry)
        // starts until every probe has resolved.
        ++at_promote;
        while (at_promote.load() < kThreads) std::this_thread::yield();
        if (hit) {
          t.env.cache->Insert(std::move(probe.data), probe.info.benefit,
                              probe.info.source);
        }
        pinned[static_cast<size_t>(i)] = t.env.cache->GetPinned(key);
      });
    }
    for (std::thread& thread : threads) thread.join();

    // Every probe hit (the entry was resident throughout the probe phase)
    // and the decodes they shared add up.
    ASSERT_EQ(hits.load(), kThreads);
    ASSERT_FALSE(bit_mismatch.load());
    const WarmTierStats after = t.warm->stats();
    EXPECT_EQ(after.hits - before.hits, kThreads);
    const int64_t coalesced =
        after.coalesced_decodes - before.coalesced_decodes;
    EXPECT_GE(coalesced, 0);
    EXPECT_LT(coalesced, kThreads);  // someone always decodes
    coalesced_total += coalesced;

    // All promoters pinned the SAME hot entry; ample capacity means no
    // eviction could race the pins away.
    const ChunkData* first = nullptr;
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_NE(pinned[static_cast<size_t>(i)], nullptr);
      if (first == nullptr) first = pinned[static_cast<size_t>(i)];
      EXPECT_EQ(pinned[static_cast<size_t>(i)], first);
      t.env.cache->Unpin(key);
    }
    EXPECT_FALSE(t.warm->Contains(key));  // promotion purged the warm copy

    if (coalesced_total > 0 && round >= 3) break;
  }
  EXPECT_GT(coalesced_total, 0);  // single-flight actually coalesced

  EXPECT_EQ(t.env.cache->TotalPinCount(), 0);
  EXPECT_TRUE(t.env.cache->ValidateInvariants());
  EXPECT_TRUE(t.warm->ValidateInvariants());
}

}  // namespace
}  // namespace aac
