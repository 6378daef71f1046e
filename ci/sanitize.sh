#!/usr/bin/env bash
# Builds the whole tree under AddressSanitizer + UBSan and runs the test
# suite, then builds the parallel-layer-relevant tests under
# ThreadSanitizer and runs them with 4 threads (PRIVREC_THREADS=4, set in
# the tsan test preset) so chunk claiming, the job handshake and the
# ordered reduction are exercised with real cross-thread interleavings.
# Any sanitizer finding aborts the offending test, so a green run here
# means the suite is clean under all three.
#
# Usage: ci/sanitize.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"$(nproc)"
ctest --preset asan-ubsan -j"$(nproc)" "$@"

# Forced-scalar pass: PRIVREC_NO_SIMD=1 pins the kernel dispatch to the
# scalar reference (a runtime switch, mirroring PRIVREC_NO_MMAP — same
# build). The whole suite must stay green and, because every kernel is
# bit-identical across dispatch levels, every golden in it must match
# without re-baselining.
PRIVREC_NO_SIMD=1 ctest --preset asan-ubsan -j"$(nproc)" "$@"
echo "forced-scalar pass: full suite green with PRIVREC_NO_SIMD=1"

# ThreadSanitizer pass: the tests that drive the deterministic parallel
# layer (common/parallel.h) and the lock-free metrics/tracing fast paths
# (src/obs) through their concurrent paths.
TSAN_TESTS="parallel_test|core_test|similarity_test|obs_test"
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" \
  --target parallel_test core_test similarity_test obs_test
ctest --preset tsan -j"$(nproc)" -R "^(${TSAN_TESTS})\$" "$@"

# Chaos pass: the serving-runtime soak — >= 500 hot-swap iterations mixing
# corrupt artifacts and injected I/O faults while 4 request threads hammer
# the runtime (PRIVREC_THREADS=4 in the tsan preset keeps the parallel
# layer concurrent too). TSan shakes the epoch-publication and admission
# paths for real races; the asan-ubsan full-suite run above already covers
# the same soak for memory bugs. serve_test rides along for the breaker /
# admission / swap state machines.
cmake --build --preset tsan -j"$(nproc)" --target serve_test serve_chaos_test
PRIVREC_CHAOS_ITERS=500 \
  ctest --preset tsan -j"$(nproc)" -R "^(serve_test|serve_chaos_test)\$" "$@"
echo "chaos soak: 500 swap iterations with faults, clean under TSan"

# Streaming chaos pass: the churn soak — grow/ingest/crash/restart/
# republish/swap cycles with 4 request threads hammering the runtime while
# the pipeline journals, publishes and hot-swaps. TSan shakes the
# WAL-ingest / publish / epoch-swap interleavings; stream_test rides along
# for the journal replay and scheduler state machines.
cmake --build --preset tsan -j"$(nproc)" --target stream_test stream_soak_test
PRIVREC_CHAOS_ITERS=500 \
  ctest --preset tsan -j"$(nproc)" -R "^(stream_test|stream_soak_test)\$" "$@"
echo "stream soak: 500 churn iterations with crashes and faults, clean under TSan"

# Probes-compiled-out pass for the serving runtime: with
# PRIVREC_NO_FAULT_INJECTION the fault probes in the artifact I/O and
# serve paths are constexpr no-ops, and the runtime (plus its tests, which
# skip or downgrade their armed-fault branches via fault::kCompiledIn)
# must still build and stay green — real corruption is caught either way.
cmake --preset no-fault-injection
cmake --build --preset no-fault-injection -j"$(nproc)" \
  --target serve_test serve_chaos_test data_robustness_test
ctest --preset no-fault-injection -j"$(nproc)" \
  -R "^(serve_test|serve_chaos_test|data_robustness_test)\$" "$@"
echo "no-fault-injection build: serving runtime compiles and soaks clean"

# PRIVREC_OBS=OFF pass: the no-op shells must keep the whole suite green,
# and the compile-out must be real — no registry or tracer machinery may
# survive into the obs library's object code.
cmake --preset no-obs
cmake --build --preset no-obs -j"$(nproc)"
ctest --preset no-obs -j"$(nproc)" "$@"
if nm --defined-only build-noobs/src/obs/libprivrec_obs.a 2>/dev/null \
    | grep -E "MetricsRegistry|Tracer|SpanScope" ; then
  echo "FAIL: PRIVREC_OBS=OFF build still defines obs runtime symbols" >&2
  exit 1
fi
echo "no-obs symbol check: clean (metrics registry and tracer compiled out)"

# Artifact determinism pass: build→save→load→serve must be byte-stable.
# For K=1 (the SaveArtifact case) and K=3 shards, the manifest and every
# shard file are the same bytes on every run and at every thread count,
# and serving the artifact mapped, through the PRIVREC_NO_MMAP read
# fallback, or straight from the built model (no --artifact-out:
# ServingEngine::FromModel, no I/O) yields byte-identical recommendations.
# (The asan-ubsan tree is already built above; running under ASan also
# shakes the save/map paths for memory bugs.)
SCRATCH=artifact-scratch
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"
FP=build-asan-ubsan/examples/file_pipeline
run_pipeline() {  # run_pipeline <tag> <threads> <extra args...>
  local tag="$1" threads="$2"
  shift 2
  "$FP" --social="$SCRATCH/social.tsv" --prefs="$SCRATCH/prefs.tsv" \
    --epsilon=0.5 --top_n=10 --threads="$threads" \
    --out="$SCRATCH/recs_$tag.tsv" "$@" > "$SCRATCH/log_$tag.txt"
}
run_pipeline mem 1
for k in 1 3; do
  # The manifest names its shard files (by content) relative to itself,
  # so byte comparison needs the same artifact name: one directory per run.
  for run in a:1 b:1 c:2; do
    tag="k$k${run%%:*}"
    mkdir -p "$SCRATCH/$tag"
    run_pipeline "$tag" "${run##*:}" --shards="$k" \
      --artifact-out="$SCRATCH/$tag/model.pvram"
  done
  shards=("$SCRATCH/k${k}a"/model.pvram.shard*)
  if [[ ${#shards[@]} -ne $k ]]; then
    echo "FAIL: K=$k save left ${#shards[@]} shard files" >&2
    exit 1
  fi
  for other in b c; do
    diff <(ls "$SCRATCH/k${k}a") <(ls "$SCRATCH/k$k$other")
    for file in "$SCRATCH/k${k}a"/*; do
      cmp "$file" "$SCRATCH/k$k$other/$(basename "$file")"
    done
  done
  run_pipeline "k${k}map" 4 --artifact-in="$SCRATCH/k${k}a/model.pvram"
  (export PRIVREC_NO_MMAP=1
   run_pipeline "k${k}read" 4 --artifact-in="$SCRATCH/k${k}a/model.pvram")
  for tag in "k${k}a" "k${k}b" "k${k}c" "k${k}map" "k${k}read"; do
    cmp "$SCRATCH/recs_mem.tsv" "$SCRATCH/recs_$tag.tsv"
  done
done
rm -rf "$SCRATCH"
echo "artifact determinism: K=1 and K=3 manifest+shard bytes stable across" \
     "runs and thread counts; mapped, read-fallback and in-memory serving" \
     "match"

# Privacy isolation: the serving library must stay free of preference-
# and social-graph code — the CMake allowlist enforces the link layer,
# this enforces the object code.
if nm --defined-only build-asan-ubsan/src/artifact/libprivrec_serving.a \
    2>/dev/null | grep -E "PreferenceGraph|SocialGraph" ; then
  echo "FAIL: privrec_serving object code references the graph types" >&2
  exit 1
fi
echo "serving symbol check: clean (no preference/social graph code)"

# Serving is post-processing of a release whose noise is frozen: the
# serving library must not be able to draw noise. Undefined symbols count
# too (no --defined-only): a call into the DP mechanisms is a reference.
if nm -C build-asan-ubsan/src/artifact/libprivrec_serving.a 2>/dev/null \
    | grep -E "LaplaceMechanism|GeometricMechanism|Rng::Laplace" ; then
  echo "FAIL: privrec_serving object code references the noise mechanisms" >&2
  exit 1
fi
echo "serving noise check: clean (no DP mechanism or Laplace sampler)"

# The serving runtime (src/serve) inherits the same isolation guarantee.
if nm --defined-only build-asan-ubsan/src/serve/libprivrec_serve.a \
    2>/dev/null | grep -E "PreferenceGraph|SocialGraph" ; then
  echo "FAIL: privrec_serve object code references the graph types" >&2
  exit 1
fi
echo "serve runtime symbol check: clean (no preference/social graph code)"

# Crash-recovery matrix: kill the streaming service at every journaling
# stage (WAL append/fsync, ledger intent/commit, post-journal window,
# artifact write/rename/reopen), restart, and require bit-identical
# convergence with clean ε audits (see ci/stream_soak.sh for the matrix).
# Runs against the asan-ubsan tree so every crash path is also
# memory-checked.
ci/stream_soak.sh build-asan-ubsan

# Rated-load SLO gate: open-loop load + swap storm against the serving
# runtime, with determinism, budget-enforcement and TSan wall-mode gates
# (see ci/serve_slo.sh for the budgets and methodology).
ci/serve_slo.sh

# Kernel performance gate: the dispatched SIMD reconstruction kernels
# must clear their speedup floors over the scalar references, and
# PRIVREC_NO_SIMD must verifiably pin dispatch to scalar (see
# ci/perf_gate.sh for floors and methodology).
ci/perf_gate.sh
