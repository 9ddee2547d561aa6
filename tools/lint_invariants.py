#!/usr/bin/env python3
"""Repo-invariant linter: the always-on half of the lint wall.

Clang Thread Safety Analysis (tools/lint.sh, CMake -Wthread-safety) is the
deep check, but it only runs where a clang toolchain exists. This linter is
pure Python over the source text, so it runs everywhere the tests run, and
it enforces the invariants that keep the clang gate meaningful:

  R1  Raw lock primitives are banned outside src/util/mutex.h. All of
      src/ must lock through aac::Mutex / aac::SharedMutex and the RAII
      guards — a naked std::mutex or .lock() call is invisible to the
      thread-safety analysis and to the lock-ordering documentation.
  R2  The lock-discipline annotation table: specific guarded fields and
      lock-requiring methods of the concurrent core must carry their
      AAC_GUARDED_BY / AAC_REQUIRES annotations. Deleting an annotation
      (which would silently weaken the clang gate) fails this linter even
      on machines without clang.
  R3  The rollup fold hot path (src/storage/aggregator.*) must not use
      std::unordered_map — the flat SparseFoldTable / FoldArena replaced
      it for a reason (PR "fast rollup kernel"); a regression would be a
      silent 2-3x kernel slowdown.
  R4  Every tests/*_test.cc is registered in tests/CMakeLists.txt via
      aac_add_test (the function silently skips missing files, so an
      unregistered test compiles green and never runs).
  R5  Tests that exercise the concurrent core (ConcurrentQueryEngine,
      SingleFlight, the sharded ChunkCache, RollupPlanCache, the
      layer-parallel MeasuredChunkSizeModel, raw std::thread) must carry the "concurrency" ctest label, because
      tools/check.sh tsan only runs that label — an unlabeled concurrent
      test never sees ThreadSanitizer. Likewise, tests that exercise the
      overload surface (deadlines/cancellation via util/deadline.h, the
      admission controller) must carry the "robustness" label, which
      tools/check.sh robustness runs under ASan/UBSan and TSan. Tests that
      exercise the semantic result cache or the query canonicalizer must
      carry the "resultcache" label, which tools/check.sh resultcache runs
      under both sanitizer configurations. Tests that exercise the tiered
      cache (warm tier, disk spill tier, or the chunk codec) must carry
      the "tiered" label, which tools/check.sh tiered runs the same way.
  R6  Raw std::this_thread::sleep_for is banned outside src/util/sleep.h.
      Every wait must go through the clock-aware helpers (SleepForNanos /
      SleepForNanosClamped) or a deadline-bounded CondVar wait — a naked
      sleep deep in a retry or polling loop is invisible to the deadline
      machinery and happily oversleeps a query's remaining budget.
  R7  Raw SIMD intrinsics (immintrin.h, _mm* calls, __m128/256/512 types)
      are banned outside src/storage/fold_kernel.{h,cc}. The fold kernel is
      the single CPU-dispatch seam: everywhere else stays portable so the
      scalar fallback always compiles, tools/check.sh kernel-simd can force
      either path, and bit-identity is proven against one seam instead of
      scattered vector code.
  R8  Every Mutex / SharedMutex member in src/ must be constructed with an
      explicit LockRank (src/util/lockdep.h), and both the LockRank enum
      and the rank declared at each known construction site are pinned
      here (same pattern as the R2 annotation table). Deleting a rank, or
      adding a mutex without declaring its place in the global lock
      order, fails this linter even on machines that never run an
      AAC_LOCKDEP build — the rank table only means something if it is
      total.
  R9  Query routing is decided in one place: calls to FindPlan( and
      EstimateMarginalChunkCostNanos(, and reads of fixed_query_overhead_ns,
      appear in src/ only inside QueryEngine::Plan (src/core/query_engine.cc).
      Execution and EXPLAIN both consume that stage's plan, so a second
      probe or bypass computation anywhere else is a second routing
      procedure that can drift. Strategy implementations (they define and
      recurse through FindPlan), src/backend/ (it defines the cost model and
      the estimate) and workload/experiment.cc's benefit-model overhead read
      are allow-listed.
  R10 One CLOCK: the weighted-CLOCK replacement of every cache tier lives in
      src/cache/clock_map.h. A clock-value decrement (`clock_value -=`) or a
      CLOCK ring/hand member (a std::list-typed ring, hand or ring position)
      anywhere else in src/ is a second copy of the sweep that can drift
      from the first; the owner holds a ClockMap instead.

Exit status 0 with no output (beyond the summary) when clean; 1 with one
line per finding otherwise.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
findings = []


def finding(path, lineno, rule, message):
    rel = path.relative_to(REPO) if path.is_absolute() else path
    findings.append(f"{rel}:{lineno}: [{rule}] {message}")


def source_lines(path):
    """Yields (lineno, line) with // comments stripped (string literals in
    this codebase never contain the banned tokens, so no lexer needed)."""
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        yield lineno, line.split("//", 1)[0]


# --------------------------------------------------------------------------
# R1: raw lock primitives banned outside the wrapper.
# --------------------------------------------------------------------------

RAW_LOCK_TOKENS = [
    (re.compile(r"\bstd::(recursive_|timed_|shared_)?mutex\b"), "std mutex type"),
    (re.compile(r"\bstd::condition_variable(_any)?\b"), "std condition variable"),
    (
        re.compile(r"\bstd::(lock_guard|unique_lock|shared_lock|scoped_lock)\b"),
        "std lock guard",
    ),
    (
        re.compile(r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>"),
        "raw lock header include",
    ),
    # Naked lock-manipulation calls. aac::Mutex spells these Lock()/Unlock()
    # (capitalized), so any lowercase member call is a std primitive leaking
    # through. Matched as member calls to avoid false positives on
    # unrelated identifiers.
    (
        re.compile(r"[\w\)\]](\.|->)(lock|unlock|try_lock|lock_shared|"
                   r"unlock_shared|try_lock_shared)\s*\("),
        "naked lock/unlock call",
    ),
]

WRAPPER = REPO / "src" / "util" / "mutex.h"


def check_raw_locks():
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cc") or path == WRAPPER:
            continue
        for lineno, code in source_lines(path):
            for pattern, what in RAW_LOCK_TOKENS:
                if pattern.search(code):
                    finding(
                        path, lineno, "R1-raw-lock",
                        f"{what} outside src/util/mutex.h — use aac::Mutex / "
                        "aac::SharedMutex and the RAII guards",
                    )


# --------------------------------------------------------------------------
# R2: the annotation table. Each entry pins one annotation the clang
# thread-safety gate depends on: (file, anchor regex, human description).
# The anchor must match the file text (DOTALL, so declarations may wrap).
# --------------------------------------------------------------------------

ANNOTATION_TABLE = [
    # ChunkCache: per-shard state (the shard's ClockMap holds the entries,
    # CLOCK rings and byte ledger) and the eviction helpers that assume the
    # shard lock is held.
    ("src/cache/chunk_cache.h",
     r"ClockMap<[^;]*>\s+entries\s+AAC_GUARDED_BY\(mutex\)",
     "Shard::entries (the shard's ClockMap) must be AAC_GUARDED_BY(mutex)"),
    ("src/cache/chunk_cache.h",
     r"CacheStats\s+stats\s+AAC_GUARDED_BY\(mutex\)",
     "Shard::stats must be AAC_GUARDED_BY(mutex)"),
    ("src/cache/chunk_cache.h",
     r"MakeRoom\([^;]*\)\s*AAC_REQUIRES\(shard\.mutex\)",
     "ChunkCache::MakeRoom must carry AAC_REQUIRES(shard.mutex)"),
    ("src/cache/chunk_cache.h",
     r"EvictEntry\([^;]*\)\s*AAC_REQUIRES\(shard\.mutex\)",
     "EvictEntry must carry AAC_REQUIRES(shard.mutex)"),
    # The CLOCK victim callbacks are lambdas, which the analysis checks as
    # separate functions; they re-establish the owner's lock through
    # AssertHeld, so its capability annotation must stay.
    ("src/util/mutex.h",
     r"AssertHeld\(\)\s*const\s*AAC_ASSERT_CAPABILITY\(this\)",
     "Mutex::AssertHeld must carry AAC_ASSERT_CAPABILITY(this)"),
    # Circuit breaker: the half-open single-probe invariant lives in
    # probe_inflight_; TransitionIfCooledDown mutates state under the lock.
    ("src/core/circuit_breaker.h",
     r"probe_inflight_\s+AAC_GUARDED_BY\(mutex_\)",
     "probe_inflight_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/core/circuit_breaker.h",
     r"TransitionIfCooledDown\(\)\s*AAC_REQUIRES\(mutex_\)",
     "TransitionIfCooledDown must carry AAC_REQUIRES(mutex_)"),
    # SingleFlight: slot payload is published under the slot mutex.
    ("src/core/single_flight.h",
     r"done\s+AAC_GUARDED_BY\(mutex\)",
     "Slot::done must be AAC_GUARDED_BY(mutex)"),
    ("src/core/single_flight.h",
     r"inflight_\s+AAC_GUARDED_BY\(mutex_\)",
     "inflight_ must be AAC_GUARDED_BY(mutex_)"),
    # VCM / VCMC strategies: shared_mutex discipline over the count tables.
    ("src/core/vcm.h",
     r"counts_\s+AAC_GUARDED_BY\(mutex_\)",
     "VcmStrategy::counts_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/core/vcm.h",
     r"Build\([^;]*\)[^;]*AAC_REQUIRES_SHARED\(mutex_\)",
     "VcmStrategy::Build must carry AAC_REQUIRES_SHARED(mutex_)"),
    ("src/core/vcmc.h",
     r"Evaluate\([^;]*\)[^;]*AAC_REQUIRES\(mutex_\)",
     "VcmcStrategy::Evaluate must carry AAC_REQUIRES(mutex_)"),
    ("src/core/vcmc.h",
     r"RecomputeAndPropagate\([^;]*\)[^;]*AAC_REQUIRES\(mutex_\)",
     "VcmcStrategy::RecomputeAndPropagate must carry AAC_REQUIRES(mutex_)"),
    # Engine pool.
    ("src/core/concurrent_engine.h",
     r"idle_\s+AAC_GUARDED_BY\(pool_mutex_\)",
     "ConcurrentQueryEngine::idle_ must be AAC_GUARDED_BY(pool_mutex_)"),
    # Admission controller: every slot/queue counter mutates under the one
    # admission mutex; the capacity predicate assumes it is held.
    ("src/core/admission.h",
     r"running_\s+AAC_GUARDED_BY\(mutex_\)",
     "AdmissionController::running_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/core/admission.h",
     r"queued_interactive_\s+AAC_GUARDED_BY\(mutex_\)",
     "AdmissionController::queued_interactive_ must be "
     "AAC_GUARDED_BY(mutex_)"),
    ("src/core/admission.h",
     r"queued_batch_\s+AAC_GUARDED_BY\(mutex_\)",
     "AdmissionController::queued_batch_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/core/admission.h",
     r"HasCapacityLocked\([^;]*\)[^;]*AAC_REQUIRES\(mutex_\)",
     "AdmissionController::HasCapacityLocked must carry "
     "AAC_REQUIRES(mutex_)"),
    # Result cache: every map/ring/byte-count mutation happens in its
    # ClockMap under the one result-cache mutex; the CLOCK sweep and the
    # invalidation walk assume it is held.
    ("src/cache/result_cache.h",
     r"ClockMap<[^;]*>\s+entries_\s+AAC_GUARDED_BY\(mutex_\)",
     "ResultCache::entries_ (its ClockMap) must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/result_cache.h",
     r"stats_\s+AAC_GUARDED_BY\(mutex_\)",
     "ResultCache::stats_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/result_cache.h",
     r"MakeRoom\([^;]*\)[^;]*AAC_REQUIRES\(mutex_\)",
     "ResultCache::MakeRoom must carry AAC_REQUIRES(mutex_)"),
    ("src/cache/result_cache.h",
     r"Invalidate\([^;]*\)[^;]*AAC_REQUIRES\(mutex_\)",
     "ResultCache::Invalidate must carry AAC_REQUIRES(mutex_)"),
    # Warm tier: the ClockMap (entries, CLOCK ring, encoded-byte ledger) and
    # the single-flight decode map all mutate under the one warm mutex; CLOCK
    # victims reach the disk tier only after unlocking.
    ("src/cache/warm_tier.h",
     r"ClockMap<[^;]*>\s+entries_\s+AAC_GUARDED_BY\(mutex_\)",
     "WarmTier::entries_ (its ClockMap) must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/warm_tier.h",
     r"flights_\s+AAC_GUARDED_BY\(mutex_\)",
     "WarmTier::flights_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/warm_tier.h",
     r"WarmTierStats\s+stats_\s+AAC_GUARDED_BY\(mutex_\)",
     "WarmTier::stats_ must be AAC_GUARDED_BY(mutex_)"),
    # Disk tier: the spill-file handle and the extent index (a ClockMap with
    # the live-byte ledger) share one mutex; compaction rewrites the file
    # and so assumes it too.
    ("src/cache/disk_tier.h",
     r"file_\s+AAC_GUARDED_BY\(mutex_\)",
     "DiskTier::file_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/disk_tier.h",
     r"file_bytes_\s+AAC_GUARDED_BY\(mutex_\)",
     "DiskTier::file_bytes_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/disk_tier.h",
     r"ClockMap<[^;]*>\s+entries_\s+AAC_GUARDED_BY\(mutex_\)",
     "DiskTier::entries_ (its ClockMap) must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/disk_tier.h",
     r"DiskTierStats\s+stats_\s+AAC_GUARDED_BY\(mutex_\)",
     "DiskTier::stats_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/disk_tier.h",
     r"MaybeCompact\(\)\s*AAC_REQUIRES\(mutex_\)",
     "DiskTier::MaybeCompact must carry AAC_REQUIRES(mutex_)"),
    # Rollup plan cache.
    ("src/storage/rollup_plan.h",
     r"plans_\s*\n?\s*AAC_GUARDED_BY\(mutex_\)",
     "RollupPlanCache::plans_ must be AAC_GUARDED_BY(mutex_)"),
    # Backend + fault injector: stats snapshots by value under the lock.
    ("src/backend/backend.h",
     r"stats_\s+AAC_GUARDED_BY\(mutex_\)",
     "BackendServer::stats_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/backend/fault_injector.h",
     r"rng_\s+AAC_GUARDED_BY\(mutex_\)",
     "FaultInjectingBackend::rng_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/backend/fault_injector.h",
     r"stats_\s+AAC_GUARDED_BY\(mutex_\)",
     "FaultInjectingBackend::stats_ must be AAC_GUARDED_BY(mutex_)"),
]


def check_annotation_table():
    for rel, anchor, description in ANNOTATION_TABLE:
        path = REPO / rel
        if not path.exists():
            finding(pathlib.Path(rel), 1, "R2-annotation",
                    f"file missing but listed in annotation table: {description}")
            continue
        text = path.read_text(encoding="utf-8")
        if not re.search(anchor, text, re.DOTALL):
            finding(path, 1, "R2-annotation", description)


# Returning a reference to lock-guarded state hands the caller a racy view;
# the two accessors this bit in real code must stay by-value.
BY_VALUE_TABLE = [
    ("src/backend/backend.h", r"const\s+BackendStats\s*&\s*stats\(\)",
     "BackendServer::stats() must return BackendStats by value, not by "
     "reference (the reference races with concurrent ExecuteChunkQuery)"),
    ("src/backend/fault_injector.h", r"const\s+FaultStats\s*&\s*stats\(\)",
     "FaultInjectingBackend::stats() must return FaultStats by value"),
    ("src/core/circuit_breaker.h", r"const\s+BreakerStats\s*&\s*stats\(\)",
     "CircuitBreaker::stats() must return BreakerStats by value"),
]


def check_by_value_accessors():
    for rel, banned, description in BY_VALUE_TABLE:
        path = REPO / rel
        if path.exists() and re.search(banned, path.read_text(encoding="utf-8")):
            finding(path, 1, "R2-annotation", description)


# --------------------------------------------------------------------------
# R3: fold hot path stays flat.
# --------------------------------------------------------------------------

def check_fold_hot_path():
    for rel in ("src/storage/aggregator.h", "src/storage/aggregator.cc"):
        path = REPO / rel
        if not path.exists():
            continue
        for lineno, code in source_lines(path):
            if re.search(r"\bstd::unordered_map\b", code):
                finding(path, lineno, "R3-fold-hot-path",
                        "std::unordered_map in the rollup fold hot path — "
                        "use SparseFoldTable / FoldArena")


# --------------------------------------------------------------------------
# R4 + R5: test registration and label audits.
# --------------------------------------------------------------------------

# One row per audited label: (label, includes that put a test in its
# surface, what that surface is, the tools/check.sh mode that runs the
# label, and what that mode runs it under). A test that includes any of the
# headers must carry the label, or the mode never runs it.
LABEL_AUDITS = [
    # The concurrent core — tools/check.sh tsan runs this label under TSan.
    ("concurrency",
     ["<thread>", '"core/concurrent_engine.h"', '"core/single_flight.h"',
      '"cache/chunk_cache.h"', '"storage/rollup_plan.h"',
      '"storage/fold_kernel.h"', '"storage/measured_size_model.h"',
      '"workload/parallel_runner.h"'],
     "the concurrent core", "tsan", "ThreadSanitizer"),
    # The overload surface (deadlines, cancellation, admission, retries,
    # faults).
    ("robustness",
     ['"core/admission.h"', '"util/deadline.h"', '"core/retry_policy.h"',
      '"backend/fault_injector.h"'],
     "the overload surface (deadlines/admission/retries/faults)",
     "robustness", "the sanitizers"),
    # The semantic result layer (the result cache itself or the query
    # canonicalizer feeding it).
    ("resultcache",
     ['"cache/result_cache.h"', '"core/query_canon.h"'],
     "the result cache / canonicalizer", "resultcache", "the sanitizers"),
    # The tiered cache (the compressed warm tier, the disk spill tier, or
    # the chunk codec feeding both).
    ("tiered",
     ['"cache/warm_tier.h"', '"cache/disk_tier.h"', '"storage/chunk_codec.h"'],
     "the tiered cache (warm/disk tier or chunk codec)", "tiered",
     "the sanitizers"),
]


def include_markers(headers):
    return re.compile(r"#\s*include\s*(" +
                      "|".join(re.escape(h) for h in headers) + ")")


def check_test_registry():
    cmake = REPO / "tests" / "CMakeLists.txt"
    text = cmake.read_text(encoding="utf-8")
    # name -> label list, from aac_add_test(name [labels...]) calls.
    registered = {
        m.group(1): m.group(2).split()
        for m in re.finditer(r"aac_add_test\(\s*(\w+)([^)]*)\)", text)
    }
    for name, labels in registered.items():
        if not (REPO / "tests" / f"{name}.cc").exists():
            finding(cmake, 1, "R4-test-registry",
                    f"aac_add_test({name}) has no tests/{name}.cc — the "
                    "function silently skips it, so nothing runs")
        del labels
    for path in sorted((REPO / "tests").glob("*_test.cc")):
        name = path.stem
        if name not in registered:
            finding(cmake, 1, "R4-test-registry",
                    f"tests/{name}.cc is not registered via aac_add_test — "
                    "it will never build or run")
            continue
        text = path.read_text(encoding="utf-8")
        for label, headers, surface, mode, under in LABEL_AUDITS:
            if (include_markers(headers).search(text)
                    and label not in registered[name]):
                finding(path, 1, f"R5-{label}-label",
                        f"{name} exercises {surface} but is not labeled "
                        f"\"{label}\" — tools/check.sh {mode} will never "
                        f"run it under {under}")


# --------------------------------------------------------------------------
# R6: raw sleep_for banned outside the clock-aware helper.
# --------------------------------------------------------------------------

SLEEP_WRAPPER = REPO / "src" / "util" / "sleep.h"


def check_raw_sleeps():
    roots = [REPO / d for d in ("src", "bench", "tests", "tools")]
    for root in roots:
        if not root.exists():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".h", ".cc") or path == SLEEP_WRAPPER:
                continue
            for lineno, code in source_lines(path):
                if "sleep_for" in code or re.search(r"\busleep\s*\(", code):
                    finding(
                        path, lineno, "R6-raw-sleep",
                        "raw sleep outside src/util/sleep.h — use "
                        "SleepForNanos / SleepForNanosClamped (deadline-aware)"
                        " or a bounded CondVar wait",
                    )


# --------------------------------------------------------------------------
# R7: SIMD intrinsics confined to the fold-kernel seam.
# --------------------------------------------------------------------------

INTRINSIC_TOKENS = re.compile(
    r"#\s*include\s*<(?:imm|avx|x86|e?mm)intrin\.h>"
    r"|\b_mm\d*_\w+\s*\("
    r"|\b__m(?:128|256|512)[id]?\b"
    r"|\b__builtin_ia32_\w+"
)

KERNEL_SEAM = ("src/storage/fold_kernel.h", "src/storage/fold_kernel.cc")


def check_intrinsics_confined():
    roots = [REPO / d for d in ("src", "bench", "tests", "examples")]
    for root in roots:
        if not root.exists():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            if str(path.relative_to(REPO)) in KERNEL_SEAM:
                continue
            for lineno, code in source_lines(path):
                if INTRINSIC_TOKENS.search(code):
                    finding(
                        path, lineno, "R7-intrinsics",
                        "raw SIMD intrinsics outside src/storage/"
                        "fold_kernel.* — route vector code through the "
                        "fold-kernel seam (FoldKernelKind dispatch)",
                    )


# --------------------------------------------------------------------------
# R8: the lock-rank table. The runtime validator (src/util/lockdep.cc) can
# only check orders that were *declared*; this rule keeps the declarations
# total and pinned. Three layers:
#   (a) the LockRank enum in src/util/lockdep.h must contain exactly the
#       pinned (name, value) pairs below — renumbering or deleting a rank
#       invalidates every recorded edge dump and the DESIGN.md §10 table;
#   (b) each known mutex member must be constructed with its pinned rank;
#   (c) any Mutex/SharedMutex member declaration in src/ without a
#       LockRank::... initializer is an undeclared lock — invisible to the
#       ordering model the way an std::mutex is invisible to R1.
# --------------------------------------------------------------------------

LOCK_RANK_ENUM = [
    ("kAdmission", 100),
    ("kEnginePool", 200),
    ("kSingleFlightMap", 300),
    ("kSingleFlightSlot", 400),
    ("kCacheShard", 500),
    ("kResultCache", 600),
    ("kWarmTier", 700),
    ("kDiskTier", 800),
    ("kStrategy", 900),
    ("kCircuitBreaker", 1200),
    ("kFaultInjector", 1300),
    ("kBackend", 1400),
    ("kRollupPlanCache", 1500),
    ("kMorselPool", 1600),  # retired with its lock; kept so it is never reused
]

LOCK_RANK_TABLE = [
    ("src/core/admission.h", r"mutex_\{LockRank::kAdmission,",
     "AdmissionController's mutex must declare LockRank::kAdmission"),
    ("src/core/concurrent_engine.h", r"pool_mutex_\{LockRank::kEnginePool,",
     "the engine pool mutex must declare LockRank::kEnginePool"),
    ("src/core/single_flight.h", r"mutex\{LockRank::kSingleFlightSlot,",
     "SingleFlight::Slot::mutex must declare LockRank::kSingleFlightSlot"),
    ("src/core/single_flight.h", r"mutex_\{LockRank::kSingleFlightMap,",
     "SingleFlight::mutex_ must declare LockRank::kSingleFlightMap"),
    ("src/cache/chunk_cache.h", r"mutex\{LockRank::kCacheShard,",
     "ChunkCache::Shard::mutex must declare LockRank::kCacheShard"),
    ("src/cache/result_cache.h", r"mutex_\{LockRank::kResultCache,",
     "ResultCache::mutex_ must declare LockRank::kResultCache"),
    ("src/cache/warm_tier.h", r"mutex_\{LockRank::kWarmTier,",
     "WarmTier::mutex_ must declare LockRank::kWarmTier"),
    ("src/cache/disk_tier.h", r"mutex_\{LockRank::kDiskTier,",
     "DiskTier::mutex_ must declare LockRank::kDiskTier"),
    ("src/core/vcm.h", r"mutex_\{LockRank::kStrategy,",
     "VcmStrategy::mutex_ must declare LockRank::kStrategy"),
    ("src/core/vcmc.h", r"mutex_\{LockRank::kStrategy,",
     "VcmcStrategy::mutex_ must declare LockRank::kStrategy"),
    ("src/storage/rollup_plan.h", r"mutex_\{LockRank::kRollupPlanCache,",
     "RollupPlanCache::mutex_ must declare LockRank::kRollupPlanCache"),
    ("src/core/circuit_breaker.h", r"mutex_\{LockRank::kCircuitBreaker,",
     "CircuitBreaker::mutex_ must declare LockRank::kCircuitBreaker"),
    ("src/backend/fault_injector.h", r"mutex_\{LockRank::kFaultInjector,",
     "FaultInjectingBackend::mutex_ must declare LockRank::kFaultInjector "
     "(it holds its mutex across the inner backend call, so it must rank "
     "before kBackend)"),
    ("src/backend/backend.h", r"mutex_\{LockRank::kBackend,",
     "BackendServer::mutex_ must declare LockRank::kBackend"),
]

LOCKDEP_HEADER = REPO / "src" / "util" / "lockdep.h"

# A Mutex/SharedMutex member declaration: the type, a name, then either an
# initializer or a bare terminator. References and the guard classes don't
# match (no "&"), and MutexLock/... don't match (\b before the type).
MUTEX_DECL = re.compile(r"\b(?:mutable\s+)?(Mutex|SharedMutex)\s+(\w+)\s*([;{=])")


def check_lock_ranks():
    # (a) the pinned enum.
    if not LOCKDEP_HEADER.exists():
        finding(LOCKDEP_HEADER, 1, "R8-lock-rank",
                "src/util/lockdep.h missing — the LockRank table is gone")
    else:
        text = LOCKDEP_HEADER.read_text(encoding="utf-8")
        for name, value in LOCK_RANK_ENUM:
            if not re.search(rf"\b{name}\s*=\s*{value}\b", text):
                finding(LOCKDEP_HEADER, 1, "R8-lock-rank",
                        f"LockRank::{name} = {value} missing from the pinned "
                        "enum — ranks are append-only; renumbering breaks "
                        "recorded edge dumps and DESIGN.md §10")

    # (b) each known construction site declares its pinned rank.
    for rel, anchor, description in LOCK_RANK_TABLE:
        path = REPO / rel
        if not path.exists():
            finding(pathlib.Path(rel), 1, "R8-lock-rank",
                    f"file missing but listed in rank table: {description}")
            continue
        if not re.search(anchor, path.read_text(encoding="utf-8"), re.DOTALL):
            finding(path, 1, "R8-lock-rank", description)

    # (c) no unranked mutex members anywhere in src/.
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cc") or path == WRAPPER:
            continue
        stripped = "\n".join(code for _, code in source_lines(path))
        for m in MUTEX_DECL.finditer(stripped):
            if m.group(3) == "{" and re.match(
                    r"\s*LockRank::k\w+", stripped[m.end():]):
                continue
            lineno = stripped.count("\n", 0, m.start()) + 1
            finding(path, lineno, "R8-lock-rank",
                    f"{m.group(1)} member '{m.group(2)}' constructed without "
                    "an explicit LockRank — every lock must declare its "
                    "place in the global order (src/util/lockdep.h)")


# --------------------------------------------------------------------------
# R9: query routing confined to the engine's Plan stage.
# --------------------------------------------------------------------------

ROUTING_ENGINE = REPO / "src" / "core" / "query_engine.cc"
ROUTING_STAGE = re.compile(r"\bQueryEngine::Plan\s*\(")
# A file that declares or implements a lookup strategy may call FindPlan.
STRATEGY_IMPL = re.compile(
    r"\bclass\s+LookupStrategy\b|\bpublic\s+LookupStrategy\b"
    r"|\b\w+::FindPlan\s*\("
)

# (token, what, allowed(rel_path, file_text)) — outside the Plan stage a
# token is a finding unless its file is allow-listed.
ROUTING_TOKENS = [
    (re.compile(r"\bFindPlan\s*\("), "FindPlan call",
     lambda rel, text: STRATEGY_IMPL.search(text) is not None),
    (re.compile(r"\bEstimateMarginalChunkCostNanos\s*\("),
     "EstimateMarginalChunkCostNanos call",
     lambda rel, text: rel.startswith("src/backend/")),
    (re.compile(r"\bfixed_query_overhead_ns\b"), "fixed_query_overhead_ns read",
     lambda rel, text: rel.startswith("src/backend/")
     or rel == "src/workload/experiment.cc"),
]


def plan_stage_lines():
    """Line numbers of QueryEngine::Plan's definition, signature through the
    closing brace; empty when the definition is missing."""
    lines = set()
    if not ROUTING_ENGINE.exists():
        return lines
    depth = 0
    for lineno, code in source_lines(ROUTING_ENGINE):
        if not lines and (not ROUTING_STAGE.search(code)
                          or code.rstrip().endswith(";")):
            continue
        lines.add(lineno)
        depth += code.count("{") - code.count("}")
        if depth == 0 and "}" in code:
            break
    return lines


def check_routing_confined():
    stage = plan_stage_lines()
    if not stage:
        finding(ROUTING_ENGINE, 1, "R9-routing",
                "QueryEngine::Plan definition not found — routing must live "
                "in one Plan stage")
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = str(path.relative_to(REPO))
        code_lines = list(source_lines(path))
        text = "\n".join(code for _, code in code_lines)
        for lineno, code in code_lines:
            if path == ROUTING_ENGINE and lineno in stage:
                continue
            for pattern, what, allowed in ROUTING_TOKENS:
                if pattern.search(code) and not allowed(rel, text):
                    finding(
                        path, lineno, "R9-routing",
                        f"{what} outside QueryEngine::Plan — routes are "
                        "decided once, in the Plan stage; consume its "
                        "QueryPlan instead of re-deriving them",
                    )


# --------------------------------------------------------------------------
# R10: one CLOCK — ring, hand and sweep only in the ClockMap template.
# --------------------------------------------------------------------------

CLOCK_HOME = REPO / "src" / "cache" / "clock_map.h"
CLOCK_TOKENS = [
    (re.compile(r"\bclock_value\s*-="), "clock-value decrement"),
    (re.compile(r"\bstd::list<[^;]*\b(rings?|hands?|ring_pos)_?\s*"
                r"(AAC_\w+\s*\(|[;={])"),
     "CLOCK ring/hand member"),
]


def check_one_clock():
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cc") or path == CLOCK_HOME:
            continue
        for lineno, code in source_lines(path):
            for pattern, what in CLOCK_TOKENS:
                if pattern.search(code):
                    finding(
                        path, lineno, "R10-one-clock",
                        f"{what} outside src/cache/clock_map.h — cache tiers "
                        "hold a ClockMap and share its one sweep",
                    )


def main():
    check_raw_locks()
    check_annotation_table()
    check_by_value_accessors()
    check_fold_hot_path()
    check_test_registry()
    check_raw_sleeps()
    check_intrinsics_confined()
    check_lock_ranks()
    check_routing_confined()
    check_one_clock()
    if findings:
        for line in findings:
            print(line)
        print(f"lint_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
