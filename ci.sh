#!/usr/bin/env bash
# Local CI: formatting, lints, then the tier-1 gate (see ROADMAP.md).
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# Every crate's unit and integration tests, in a clean env: tier-1 runs
# only the root package, and several suites (the lio-mpi and lio-obs
# tests, lio-core's zerocopy/atomic/etype/independent/property/profile
# binaries) are in none of the env-matrix reruns below.
echo "== cargo test -q --workspace"
cargo test -q --workspace

# The collective suites again with the pipeline override forced both
# ways, so every differential case runs both the monolithic and the
# pipelined schedule regardless of per-test hints. (pipeline_mem is
# excluded on purpose: it asserts on the pipeline's own gauges and is
# not meaningful when the env override forces the hint off.)
echo "== collective suites under LIO_PIPELINE=0"
LIO_PIPELINE=0 cargo test -q -p lio-core --test collective --test pipeline

echo "== collective suites under LIO_PIPELINE=1"
LIO_PIPELINE=1 cargo test -q -p lio-core --test collective --test pipeline

# Real-storage backend: the collective + pipeline + fault suites again
# with every storage stack forced onto OsFile (submission queue over a
# real unlinked file), once on tmpfs and once on a real directory so
# both the fast-page-cache and the ordinary-filesystem paths are
# exercised. Cross-backend equivalence itself is the backend corpus:
# the same differential cases must produce byte-identical files under
# every backend × pipeline combination.
mkdir -p target/lio-os-ci
for osdir in /dev/shm "$PWD/target/lio-os-ci"; do
  echo "== collective/pipeline/faults suites under LIO_BACKEND=os LIO_OS_DIR=$osdir"
  LIO_BACKEND=os LIO_OS_DIR=$osdir \
    cargo test -q -p lio-core --test collective --test pipeline --test faults
  echo "== OsFile fault/edge suites under LIO_OS_DIR=$osdir"
  LIO_OS_DIR=$osdir cargo test -q -p lio-pfs --test os_faults --test os_edge
done

# A one-worker, one-deep queue: the pipelined engine submits window I/O
# straight from its event loop, so every submit past the first blocks
# that loop until the worker dequeues — the corpus must stay
# byte-identical and deadlock-free under that backpressure.
echo "== pipeline/backend/collective suites under LIO_BACKEND=os LIO_OS_WORKERS=1 LIO_OS_DEPTH=1"
LIO_BACKEND=os LIO_OS_WORKERS=1 LIO_OS_DEPTH=1 \
  cargo test -q -p lio-core --test pipeline --test backend --test collective

echo "== backend corpus cross-product LIO_BACKEND={mem,os} x LIO_PIPELINE={0,1}"
for be in mem os; do
  for pipe in 0 1; do
    echo "  -- LIO_BACKEND=$be LIO_PIPELINE=$pipe"
    LIO_BACKEND=$be LIO_PIPELINE=$pipe cargo test -q -p lio-core --test backend
  done
done

# The collective suites again with the sharded pack/unpack forced on
# and off: LIO_PACK_THREADS=4 routes every listless memtype copy above
# the threshold through the multi-threaded shard path, so a sharding
# bug fails the same differential cases the single-threaded path passes.
for pt in 1 4; do
  echo "== collective suites under LIO_PACK_THREADS=$pt"
  LIO_PACK_THREADS=$pt cargo test -q -p lio-core --test collective --test pipeline --test faults
done

# The suites again with the pack-kernel mode forced both ways: the
# fixed-width kernels must be bit-identical to the scalar reference
# loop, so the same differential cases must pass with the kernels
# disabled and engaged.
for pk in scalar auto; do
  echo "== collective/pipeline/faults/datatype suites under LIO_PACK_KERNEL=$pk"
  LIO_PACK_KERNEL=$pk cargo test -q -p lio-core --test collective --test pipeline --test faults
  LIO_PACK_KERNEL=$pk cargo test -q -p lio-datatype
done

# The kernels are portable loops that rely on the compiler's vector
# lowering, so run the kernel differential tests once more under the
# widest codegen this host supports (its own target dir, so the flags
# never mix with the default build).
echo "== datatype suites under RUSTFLAGS=-C target-cpu=native"
RUSTFLAGS="-C target-cpu=native" cargo test -q -p lio-datatype --target-dir target/native

# Self-tuning corpus: the differential suites with the tuner armed on
# every file — the tuner may only move performance knobs, so every
# corpus case must stay byte-identical to the naive reference while
# knobs shift mid-run. (pipeline_mem/zerocopy are excluded on purpose:
# they pin engine-specific gauges, and the tuner legitimately changes
# which schedule runs.)
for be in mem os; do
  echo "== autotune corpus under LIO_AUTOTUNE=1 LIO_BACKEND=$be"
  LIO_AUTOTUNE=1 LIO_BACKEND=$be \
    cargo test -q -p lio-core --test collective --test pipeline --test faults --test backend
done

# Tuner determinism + fault-safety + cold-start==advisor + autotuned
# differential corpus (ranks x backends), in a clean env.
echo "== autotune suite"
cargo test -q -p lio-core --test autotune

# Event tracing: the collective + pipeline suites once more with the
# recorder armed (catches trace-enabled-only panics), plus the dedicated
# trace-correctness tests (span pairing, causal merge, ring wraparound,
# critical path).
echo "== collective suites under LIO_TRACE=1"
LIO_TRACE=1 cargo test -q -p lio-core --test collective --test pipeline
echo "== trace correctness tests"
cargo test -q -p lio-core --test trace

# Runtime health layer: the collective + pipeline + fault suites once
# more with heartbeats armed on every file (catches health-enabled-only
# panics and watchdog false positives across the differential corpus),
# then the dedicated hang-injection suite under a hard timeout so a
# watchdog regression can never wedge CI itself.
echo "== collective/pipeline/faults suites under LIO_HEALTH=1"
LIO_HEALTH=1 cargo test -q -p lio-core --test collective --test pipeline --test faults

echo "== hang-injection suite (hard 300 s timeout)"
timeout 300 cargo test -q -p lio-core --test health

# repro trace must produce a well-formed Perfetto timeline whose
# critical-path report names a bounding phase.
echo "== repro trace + validate-json"
./target/release/repro trace --quick | tee /tmp/lio_trace_out.txt
grep -q "bounding" /tmp/lio_trace_out.txt
./target/release/repro validate-json results/trace.json

# Access-pattern profiler + hint advisor: the three reference workloads
# must produce per-rule recommendations with printed reasoning and a
# schema-versioned, well-formed profile artifact.
echo "== repro profile + validate-json"
./target/release/repro profile --quick | tee /tmp/lio_profile_out.txt
grep -q "engine=listless" /tmp/lio_profile_out.txt
grep -q "two_phase_pipeline=enable" /tmp/lio_profile_out.txt
grep -q "pack_kernel=auto" /tmp/lio_profile_out.txt
# the ragged workload's programs must be attributed to the
# normalization pass, not reported as born strided
grep -Eq "ragged_hindexed_pack:.*[1-9][0-9]* rewritten" /tmp/lio_profile_out.txt
./target/release/repro validate-json results/profile.json

# Compiled-program overhead gate: on a flat-contiguous type the run
# program must stay within 2% of the naive tree walk (exits non-zero
# on a sustained violation).
echo "== pack_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench pack_overhead

# Kernel overhead gate: on a flat-contiguous type (one huge block — the
# fixed-block kernels must not engage) auto mode must stay within 2% of
# a forced-scalar run.
echo "== kernel_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench kernel_overhead

# Trace overhead: same noise-floor structure as obs_overhead — with
# tracing disabled the hooks must be within run-to-run noise.
echo "== trace_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench trace_overhead

# Profiler overhead: same noise-floor structure — with profiling
# disabled the record hooks must be within run-to-run noise.
echo "== profile_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench profile_overhead

# Health overhead: same noise-floor structure — with the layer disabled
# every heartbeat site is one relaxed atomic load and must be within
# run-to-run noise (<2%).
echo "== health_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench health_overhead

# Submission-queue backend overhead gate: on contiguous page-aligned
# 4 MiB transfers the OsFile layer must stay within 5% of a direct
# pread/pwrite (exits non-zero on a clean violation; prints CHECK when
# the host's own noise floor exceeds the threshold).
echo "== os_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench os_overhead

# Tuner-enabled-but-already-optimal overhead gate: <=2% wall overhead
# and zero net knob movement after settling (exits non-zero on a clean
# violation; prints CHECK when the host's own noise floor exceeds it).
echo "== autotune_overhead gate"
LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench autotune_overhead

# Self-tuning convergence proof: from cold-start default hints, the
# tuned wall time must reach within 10% of the best static config (the
# exhaustive sweep runs in the same invocation) in at most 8 ops; the
# binary exits non-zero on a miss and writes BENCH_autotune.json.
echo "== repro autotune + validate-json"
./target/release/repro autotune --quick | tee /tmp/lio_autotune_out.txt
grep -q "converged at op" /tmp/lio_autotune_out.txt
./target/release/repro validate-json BENCH_autotune.json

# Perf trajectory: regenerate every committed BENCH_*.json artifact and
# compare against its baseline. Any time-unit metric regressing beyond
# the threshold fails CI with the (bench, config, metric) triple named;
# the threshold is deliberately loose (50%) so shared-host noise doesn't
# block while real cliffs stay on record.
echo "== bench baseline comparison (fail at >${LIO_BENCH_COMPARE_PCT:-50}%)"
export LIO_BENCH_COMPARE_PCT="${LIO_BENCH_COMPARE_PCT:-50}"
regen_bench() {
  case "$1" in
    BENCH_pipeline.json) LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench pipeline ;;
    BENCH_pack.json)     LIO_BENCH_FAST=1 cargo bench -q -p lio-bench --bench pack ;;
    BENCH_metrics.json)  ./target/release/repro metrics --quick ;;
    BENCH_autotune.json) ./target/release/repro autotune --quick ;;
    *) return 1 ;;
  esac
}
for bj in $(git ls-tree --name-only HEAD | grep '^BENCH_.*\.json$'); do
  git show "HEAD:$bj" > "/tmp/lio_baseline_$bj"
  if ! grep -q schema_version "/tmp/lio_baseline_$bj"; then
    echo "  ($bj baseline predates the schema — skipping)"
    continue
  fi
  if [ "$bj" = "BENCH_pack.json" ] && ! grep -q pack_kernels "/tmp/lio_baseline_$bj"; then
    echo "  ($bj baseline lacks pack_kernels columns — skipping)"
    continue
  fi
  if ! regen_bench "$bj"; then
    echo "  (no regeneration recipe for $bj — skipping)"
    continue
  fi
  ./target/release/repro bench-compare --fail "/tmp/lio_baseline_$bj" "$bj"
done

# Fault corpus: the three fixed seeds plus a rotating, commit-derived
# seed so the corpus keeps widening over time without losing replay
# determinism (the seed depends only on the commit, never the clock).
# On failure, replay the exact schedule with:
#   LIO_FAULT_SEED=<seed> LIO_PIPELINE=<0|1> \
#     cargo test -p lio-core --test collective --test pipeline --test faults
ROTATING_SEED="0x$(git rev-parse --short=8 HEAD 2>/dev/null || echo 5EED)"
for seed in 7 0xBAD5EED 0x5C032003 "$ROTATING_SEED"; do
  for pipe in 0 1; do
    echo "== fault corpus: LIO_FAULT_SEED=$seed LIO_PIPELINE=$pipe"
    if ! LIO_FAULT_SEED=$seed LIO_PIPELINE=$pipe \
        cargo test -q -p lio-core --test collective --test pipeline --test faults; then
      echo "FAULT CORPUS FAILURE — replay with:"
      echo "  LIO_FAULT_SEED=$seed LIO_PIPELINE=$pipe cargo test -p lio-core --test collective --test pipeline --test faults"
      exit 1
    fi
  done
done

echo "CI OK"
