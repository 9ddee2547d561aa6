#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/clock_map.h"
#include "cache/replacement.h"

namespace aac {

// White-box access to ClockMap's rings and ledger for the Validate cases.
struct ClockMapTestPeer {
  template <typename Map>
  static auto& rings(Map& map) {
    return map.rings_;
  }
  template <typename Map>
  static int64_t& bytes(Map& map) {
    return map.bytes_;
  }
};

namespace {

CacheEntryInfo MakeInfo(double benefit, ChunkSource source) {
  CacheEntryInfo info;
  info.key = {0, 0};
  info.bytes = 10;
  info.benefit = benefit;
  info.source = source;
  return info;
}

TEST(NormalizedWeight, MonotoneAndBounded) {
  EXPECT_DOUBLE_EQ(ReplacementPolicy::NormalizedWeight(0.0), 1.0);
  double prev = 0.0;
  for (double b : {0.0, 1.0, 10.0, 1e3, 1e6, 1e12}) {
    const double w = ReplacementPolicy::NormalizedWeight(b);
    EXPECT_GE(w, prev);
    EXPECT_GE(w, 1.0);
    EXPECT_LE(w, 32.0);
    prev = w;
  }
}

TEST(NormalizedWeight, NegativeBenefitClampsToOne) {
  EXPECT_DOUBLE_EQ(ReplacementPolicy::NormalizedWeight(-5.0), 1.0);
}

TEST(BenefitPolicy, ClockValueGrowsWithBenefit) {
  BenefitPolicy p;
  EXPECT_LT(p.ClockValue(MakeInfo(1.0, ChunkSource::kBackend)),
            p.ClockValue(MakeInfo(1000.0, ChunkSource::kBackend)));
}

TEST(BenefitPolicy, AnyoneCanReplaceAnyone) {
  BenefitPolicy p;
  EXPECT_TRUE(p.CanReplace(MakeInfo(1, ChunkSource::kCacheComputed),
                           MakeInfo(100, ChunkSource::kBackend)));
  EXPECT_TRUE(p.CanReplace(MakeInfo(1, ChunkSource::kBackend),
                           MakeInfo(100, ChunkSource::kCacheComputed)));
}

TEST(TwoLevelPolicy, CacheComputedCannotReplaceBackend) {
  TwoLevelPolicy p;
  EXPECT_FALSE(p.CanReplace(MakeInfo(100, ChunkSource::kCacheComputed),
                            MakeInfo(1, ChunkSource::kBackend)));
}

TEST(TwoLevelPolicy, BackendCanReplaceEither) {
  TwoLevelPolicy p;
  EXPECT_TRUE(p.CanReplace(MakeInfo(1, ChunkSource::kBackend),
                           MakeInfo(100, ChunkSource::kBackend)));
  EXPECT_TRUE(p.CanReplace(MakeInfo(1, ChunkSource::kBackend),
                           MakeInfo(100, ChunkSource::kCacheComputed)));
}

TEST(TwoLevelPolicy, CacheComputedCanReplaceCacheComputed) {
  TwoLevelPolicy p;
  EXPECT_TRUE(p.CanReplace(MakeInfo(1, ChunkSource::kCacheComputed),
                           MakeInfo(100, ChunkSource::kCacheComputed)));
}

using IntClockMap = ClockMap<int, int, std::hash<int>>;

// Sweeps `map` for `bytes` more, recording victims and eligibility calls.
struct Sweep {
  std::vector<int> victims;
  int visits = 0;

  bool Run(IntClockMap& map, int64_t bytes, int ineligible = -1,
           int banned_class = -1) {
    return map.MakeRoom(
        bytes, [&](int key, int&& /*value*/) { victims.push_back(key); },
        [&](int key, int /*value*/) {
          ++visits;
          return key != ineligible;
        },
        [&](int victim_class) { return victim_class != banned_class; });
  }
};

TEST(ClockMap, IneligibleEntryIsSkippedWithoutDecrement) {
  IntClockMap map(30);
  map.Insert(1, 0, 10, 2.0);
  map.Insert(2, 0, 10, 0.0);
  map.Insert(3, 0, 10, 5.0);
  Sweep sweep;
  ASSERT_TRUE(sweep.Run(map, 10, /*ineligible=*/1));
  EXPECT_EQ(sweep.victims, std::vector<int>{2});
  EXPECT_DOUBLE_EQ(map.find(1)->second.clock_value, 2.0);
  EXPECT_DOUBLE_EQ(map.find(3)->second.clock_value, 5.0);
  EXPECT_EQ(map.bytes(), 20);
  EXPECT_TRUE(map.Validate());
}

TEST(ClockMap, RevolutionWithNothingEligibleEndsTheClass) {
  IntClockMap map(20, /*num_classes=*/2);
  map.Insert(1, 0, 10, 1.0, /*victim_class=*/0);
  map.Insert(2, 0, 10, 1.0, /*victim_class=*/1);
  Sweep sweep;
  ASSERT_TRUE(sweep.Run(map, 10, /*ineligible=*/1));
  // One visit to class 0's only (ineligible) entry ends that class; class 1
  // decrements its entry once and evicts it on the second visit.
  EXPECT_EQ(sweep.visits, 3);
  EXPECT_EQ(sweep.victims, std::vector<int>{2});
  EXPECT_DOUBLE_EQ(map.find(1)->second.clock_value, 1.0);
  // The hand wrapped back onto entry 1 before the class ended, so an entry
  // pushed behind it does not take the hand: 1 (now eligible) goes first.
  map.Insert(3, 0, 10, 1.0, /*victim_class=*/0);
  Sweep again;
  ASSERT_TRUE(again.Run(map, 10));
  EXPECT_EQ(again.victims, std::vector<int>{1});
}

TEST(ClockMap, ClassesAreSweptInOrder) {
  IntClockMap map(30, /*num_classes=*/2);
  map.Insert(1, 0, 10, 0.0, /*victim_class=*/1);
  map.Insert(2, 0, 10, 3.0, /*victim_class=*/0);
  map.Insert(3, 0, 10, 0.0, /*victim_class=*/1);
  Sweep first;
  ASSERT_TRUE(first.Run(map, 10));
  // Class 0's entry goes first, although class 1 holds entries at zero.
  EXPECT_EQ(first.victims, std::vector<int>{2});
  EXPECT_EQ(first.visits, 4);
  // With class 1 off limits nothing can cover the shortfall: no sweep.
  Sweep barred;
  EXPECT_FALSE(barred.Run(map, 20, -1, /*banned_class=*/1));
  EXPECT_EQ(barred.visits, 0);
  Sweep second;
  ASSERT_TRUE(second.Run(map, 20));
  EXPECT_EQ(second.victims, std::vector<int>{1});
  EXPECT_TRUE(map.Validate());
}

TEST(ClockMap, EraseAtTheHandMovesItToTheNextEntry) {
  IntClockMap map(30);
  map.Insert(1, 0, 10, 1.0);
  map.Insert(2, 0, 10, 1.0);
  map.Insert(3, 0, 10, 1.0);
  Sweep sweep;
  ASSERT_TRUE(sweep.Run(map, 10));
  EXPECT_EQ(sweep.victims, std::vector<int>{1});  // hand now on 2
  EXPECT_EQ(map.Erase(map.find(2)), 0);            // hand moves on to 3
  map.Insert(4, 0, 10, 0.0);
  map.Insert(5, 0, 10, 0.0);
  ASSERT_TRUE(sweep.Run(map, 10));
  EXPECT_EQ(sweep.victims, (std::vector<int>{1, 3}));
  // Erasing the ring's last member parks the hand at end(); it moves onto
  // the next entry pushed to the ring instead of wrapping to the front.
  IntClockMap parked(20);
  parked.Insert(1, 0, 10, 1.0);
  parked.Insert(2, 0, 10, 0.0);
  Sweep drain;
  ASSERT_TRUE(drain.Run(parked, 10));  // 1 decremented to 0, 2 evicted
  parked.Insert(3, 0, 10, 0.0);
  ASSERT_TRUE(drain.Run(parked, 10));
  EXPECT_EQ(drain.victims, (std::vector<int>{2, 3}));
  EXPECT_TRUE(map.Validate());
  EXPECT_TRUE(parked.Validate());
}

TEST(ClockMap, SweepStopsAtTheVisitBound) {
  IntClockMap map(10);
  map.Insert(1, 0, 10, 1000.0);
  Sweep sweep;
  EXPECT_FALSE(sweep.Run(map, 10));
  EXPECT_EQ(sweep.visits, IntClockMap::kVisitsPerEntry);
  EXPECT_DOUBLE_EQ(map.find(1)->second.clock_value,
                   1000.0 - IntClockMap::kVisitsPerEntry);
}

TEST(ClockMap, UpdateToANewClassMovesToThatRingsTail) {
  IntClockMap map(30, /*num_classes=*/2);
  map.Insert(1, 0, 10, 0.0, /*victim_class=*/0);
  map.Insert(2, 0, 10, 0.0, /*victim_class=*/1);
  map.Update(map.find(1), 15, /*victim_class=*/1);
  EXPECT_EQ(map.bytes(), 25);
  EXPECT_TRUE(map.Validate());
  Sweep sweep;
  ASSERT_TRUE(sweep.Run(map, 20));
  EXPECT_EQ(sweep.victims, (std::vector<int>{2, 1}));
}

TEST(ClockMap, ValidateRejectsABrokenRingOrLedger) {
  IntClockMap map(100, /*num_classes=*/2);
  map.Insert(1, 0, 10, 1.0, /*victim_class=*/0);
  map.Insert(2, 0, 10, 1.0, /*victim_class=*/1);
  ASSERT_TRUE(map.Validate());
  EXPECT_FALSE(map.Validate([](int key, const auto&) { return key != 2; }));

  ClockMapTestPeer::bytes(map) += 1;  // ledger off by one byte
  EXPECT_FALSE(map.Validate());
  ClockMapTestPeer::bytes(map) -= 1;
  ASSERT_TRUE(map.Validate());

  auto& rings = ClockMapTestPeer::rings(map);
  rings[0].push_back(7);  // a ring member with no entry
  EXPECT_FALSE(map.Validate());
  rings[0].pop_back();
  ASSERT_TRUE(map.Validate());

  // Entry 1 (class 0) filed in class 1's ring.
  rings[1].splice(rings[1].end(), rings[0]);
  EXPECT_FALSE(map.Validate());

  IntClockMap over(10);
  over.Insert(1, 0, 20, 1.0);  // more bytes than the capacity
  EXPECT_FALSE(over.Validate());
}

}  // namespace
}  // namespace aac
