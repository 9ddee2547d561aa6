#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite in the
# plain Release configuration, again with AddressSanitizer + UBSan
# (-DAAC_SANITIZE=ON), and run the concurrency-labeled suite under
# ThreadSanitizer (-DAAC_SANITIZE=thread). Run from anywhere; builds land
# in build/, build-asan/ and build-tsan/ under the repo root.
#
#   tools/check.sh             # all three build configurations + lint
#   tools/check.sh plain       # plain only
#   tools/check.sh asan        # ASan+UBSan only
#   tools/check.sh tsan        # TSan concurrency suite only
#   tools/check.sh robustness  # overload/deadline/admission suite under
#                              # ASan+UBSan and TSan
#   tools/check.sh resultcache # result-cache/canonicalization suite under
#                              # ASan+UBSan and TSan
#   tools/check.sh tiered      # tiered-cache suite (codec differential
#                              # fuzz, demotion/promotion, torn spill
#                              # files, promotion races) under ASan+UBSan
#                              # and TSan, plus tiered_cache --smoke in
#                              # each build
#   tools/check.sh bench-smoke # rollup-kernel + overload-storm +
#                              # result-cache smoke and the kernel suite
#                              # under ASan+UBSan and TSan
#   tools/check.sh kernel-simd # the kernel suite with AAC_FOLD_KERNEL
#                              # forced to vector and then scalar: plain
#                              # build first (runs rollup_kernel --smoke,
#                              # which hosts the >= 1.5x SIMD perf assert),
#                              # then ASan+UBSan, then TSan — both
#                              # forced modes each time
#   tools/check.sh lockdep     # runtime lock-order validation: full test
#                              # suite built with -DAAC_LOCKDEP=ON, every
#                              # binary dumping its lock-order graph to one
#                              # edge file ($AAC_LOCKDEP_DUMP), then
#                              # tools/lockdep_report.py cycle-checks the
#                              # union — a cross-run ABBA fails the gate
#                              # even if no single run inverted the order
#   tools/check.sh lint        # the lint wall (tools/lint.sh): repo
#                              # invariants always; clang thread-safety
#                              # analysis and clang-tidy when LLVM is
#                              # installed
#
# The asan and tsan build trees are always configured with -DAAC_LOCKDEP=ON
# as well, so every sanitized suite (robustness/resultcache/tiered/...)
# also runs under the runtime lock-order validator; `all` runs the lint
# wall, the three build configurations and the lockdep gate.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
mode="${1:-all}"

# One sanitized (or plain) label run: configure BUILD_DIR with
# -DAAC_SANITIZE=SANITIZE (sanitized trees also get -DAAC_LOCKDEP=ON, so
# every sanitized suite runs under the runtime lock-order validator), build
# TARGETS (space-separated; empty = the whole tree) plus the SMOKE benches,
# run each SMOKE bench with --smoke (each exits nonzero when its internal
# assertions fail), then ctest -L LABEL (empty = the full suite). KERNELS,
# when given, repeats the ctest run once per AAC_FOLD_KERNEL value.
#
#   run_label NAME BUILD_DIR SANITIZE LABEL [TARGETS] [SMOKE] [KERNELS]
run_label() {
  local name="$1" build_dir="$2" sanitize="$3" label="$4"
  local targets="${5:-}" smoke="${6:-}" kernels="${7:-}"
  local lockdep_flag="-DAAC_LOCKDEP=OFF"
  [ "${sanitize}" != "OFF" ] && lockdep_flag="-DAAC_LOCKDEP=ON"
  echo "=== ${name}: configure ==="
  cmake -B "${build_dir}" -S "${repo_root}" -DAAC_SANITIZE="${sanitize}" \
    "${lockdep_flag}"
  echo "=== ${name}: build ==="
  local target_args=() t
  if [ -n "${targets}" ]; then
    for t in ${targets} ${smoke}; do target_args+=(--target "${t}"); done
  fi
  cmake --build "${build_dir}" -j "${jobs}" "${target_args[@]}"
  for t in ${smoke}; do
    echo "=== ${name}: ${t} --smoke ==="
    "${build_dir}/bench/${t}" --smoke
  done
  local label_args=()
  [ -n "${label}" ] && label_args=(-L "${label}")
  local kernel env_args
  for kernel in ${kernels:-inherited}; do
    env_args=()
    [ "${kernel}" != inherited ] && env_args=("AAC_FOLD_KERNEL=${kernel}")
    echo "=== ${name}: ctest (${label:-all labels}, AAC_FOLD_KERNEL ${kernel}) ==="
    (cd "${build_dir}" &&
      env "${env_args[@]}" ctest "${label_args[@]}" --output-on-failure \
        -j "${jobs}")
  done
  echo "=== ${name}: OK ==="
}

# The test binaries registered with ctest label LABEL, read from the
# `aac_add_test(name label...)` lines of tests/CMakeLists.txt, for the modes
# that build by target instead of building the whole tree. A test that
# joins a label is built by those modes without further edits here.
label_tests() {
  awk -v label="$1" -F '[( )]+' '/^aac_add_test\(/ {
    for (i = 3; i <= NF; ++i) if ($i == label) print $2
  }' "${repo_root}/tests/CMakeLists.txt" | tr '\n' ' '
}
kernel_tests="$(label_tests kernel)"
tiered_tests="$(label_tests tiered)"

# Runs one label mode under ASan+UBSan, then TSan.
run_sanitized() {
  local mode="$1"
  shift
  run_label "${mode}/asan+ubsan" "${repo_root}/build-asan" ON "$@"
  run_label "${mode}/tsan" "${repo_root}/build-tsan" thread "$@"
}

# Lock-order gate: the whole suite under -DAAC_LOCKDEP=ON, with every test
# binary appending its lock-order graph to one edge file, then the offline
# cycle checker over the union. The runtime validator aborts any in-run
# rank violation on the spot (failing ctest); the checker additionally
# fails the gate on a cycle assembled across *different* binaries' runs.
run_lockdep() {
  local build_dir="${repo_root}/build-lockdep"
  echo "=== lockdep: configure ==="
  cmake -B "${build_dir}" -S "${repo_root}" -DAAC_LOCKDEP=ON
  echo "=== lockdep: build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  local edges="${build_dir}/lockdep_edges.tsv"
  rm -f "${edges}"
  echo "=== lockdep: ctest (full suite, dumping edges) ==="
  (cd "${build_dir}" &&
    AAC_LOCKDEP_DUMP="${edges}" ctest --output-on-failure -j "${jobs}")
  echo "=== lockdep: cross-run cycle check ==="
  python3 "${repo_root}/tools/lockdep_report.py" "${edges}"
  echo "=== lockdep: OK ==="
}

case "${mode}" in
  plain)
    run_label "plain" "${repo_root}/build" OFF ""
    ;;
  asan)
    run_label "asan+ubsan" "${repo_root}/build-asan" ON ""
    ;;
  tsan)
    run_label "tsan" "${repo_root}/build-tsan" thread concurrency
    ;;
  robustness | resultcache)
    run_sanitized "${mode}" "${mode}"
    ;;
  tiered)
    run_sanitized tiered tiered "${tiered_tests}" tiered_cache
    ;;
  bench-smoke)
    run_sanitized bench-smoke kernel "${kernel_tests}" \
      "rollup_kernel overload_storm result_cache"
    ;;
  kernel-simd)
    run_label "kernel-simd/plain" "${repo_root}/build" OFF kernel \
      "${kernel_tests}" rollup_kernel "vector scalar"
    run_sanitized kernel-simd kernel "${kernel_tests}" "" "vector scalar"
    ;;
  lockdep)
    run_lockdep
    ;;
  lint)
    "${repo_root}/tools/lint.sh"
    ;;
  all)
    "${repo_root}/tools/lint.sh"
    run_label "plain" "${repo_root}/build" OFF ""
    run_label "asan+ubsan" "${repo_root}/build-asan" ON ""
    run_label "tsan" "${repo_root}/build-tsan" thread concurrency
    run_lockdep
    ;;
  *)
    echo "usage: tools/check.sh [plain|asan|tsan|robustness|resultcache|tiered|bench-smoke|kernel-simd|lockdep|lint|all]" >&2
    exit 2
    ;;
esac

echo "all requested configurations passed"
