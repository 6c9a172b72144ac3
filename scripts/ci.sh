#!/usr/bin/env bash
# The full local CI gate: formatting, lints, the tier-1 build + test
# suite, and the hermetic-build guard. Run from anywhere in the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> guard: crate manifests must use only path dependencies"
# The workspace builds offline; a version/git/registry dependency in any
# crate manifest would break that. [workspace.dependencies] in the root
# manifest is the single source of truth and is checked the same way.
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Inside dependency tables, every entry must be `{ path = ... }` or
    # `{ workspace = true }`; flag version/git/registry requirements.
    if awk '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/) }
        in_deps && /^[a-zA-Z0-9_-]+[ \t]*=/ {
            if ($0 !~ /path[ \t]*=/ && $0 !~ /workspace[ \t]*=[ \t]*true/) {
                print FILENAME ": " $0
                found = 1
            }
        }
        END { exit !found }
    ' "$manifest"; then
        bad=1
    fi
done
if [ "$bad" -ne 0 ]; then
    echo "error: non-path dependency found — the build must stay hermetic" >&2
    exit 1
fi
echo "    ok: all dependencies are path-only"

echo "==> guard: kernel bit-identity (no fused multiply-add, no per-machine codegen)"
# Results must be bit-identical on every machine: the kernel seam
# (crates/tensor/src/kernels.rs) picks its ISA level at run time and
# never fuses a multiply with an add. A `mul_add` call, an `fma` target
# feature, a `target-cpu` or `+fma` flag, or a .cargo/config* carrying
# RUSTFLAGS would each change rounding somewhere, so none may appear in
# code, manifests or scripts (prose and this guard itself are exempt).
bad=0
if grep -rnE '\bmul_add\(|target_feature.*fma' --include='*.rs' \
    --exclude-dir=target --exclude-dir=.bench_build --exclude-dir=.git .; then
    bad=1
fi
if grep -rnE 'target-cpu|\+fma' --include='*.toml' --include='*.sh' \
    --exclude-dir=target --exclude-dir=.bench_build --exclude-dir=.git --exclude=ci.sh .; then
    bad=1
fi
if find . \( -name target -o -name .bench_build -o -name .git \) -prune -o -path '*/.cargo/config*' -print | grep .; then
    bad=1
fi
if [ "$bad" -ne 0 ]; then
    echo "error: FMA / target-cpu / .cargo/config found — kernel results would differ between machines" >&2
    exit 1
fi
# Every unsafe block in sf-tensor and sf-core must carry a `// SAFETY:`
# argument; the crates deny the lint, this just fails early if the
# attribute is dropped.
for lib in crates/tensor/src/lib.rs crates/core/src/lib.rs; do
    if ! grep -q 'deny(clippy::undocumented_unsafe_blocks)' "$lib"; then
        echo "error: $lib no longer denies clippy::undocumented_unsafe_blocks" >&2
        exit 1
    fi
done
# The plan executor hands the pool its output planes as plain `&mut`
# chunks and checks lanes out through a lock each; it needs no unsafe
# and must not grow any back.
if grep -rnw 'unsafe' crates/core/src/plan/; then
    echo "error: unsafe under crates/core/src/plan/ — the executor is safe code" >&2
    exit 1
fi
echo "    ok: no FMA, no target-cpu, no cargo config; sf-tensor and sf-core unsafe blocks must be documented; no unsafe in the plan executor"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> kernel ISA level of this run (attribute recorded numbers to it)"
./target/release/roadseg info | grep "kernel ISA"

echo "==> fault-matrix smoke (sensor fault injection + graceful degradation)"
cargo test -q -p sf-bench --test experiments_smoke fault_matrix_smoke

echo "==> plan check (compiled plan vs graph path, bitwise, on 1, 2 and 4 threads)"
# Compiles every fusion scheme's plan on the tiny and the standard
# network and diffs its outputs against the unfused graph forward at
# batch sizes 1, 3 and 9 (the caller alone, an odd batch, more images
# than lanes); exits non-zero on any nonzero delta or arenas that hold
# anything but one static reservation per lane. Then the executor's own
# properties — batch-shape invariance, hostile-frame isolation, the
# degenerate-shape table, no reallocation, one pool region per pass —
# under the same thread counts.
for threads in 1 2 4; do
    SF_THREADS=$threads ./target/release/roadseg plan --check --smoke
    SF_THREADS=$threads ./target/release/roadseg plan --check
    SF_THREADS=$threads cargo test -q -p sf-core plan:: > /dev/null 2>&1 &&
        SF_THREADS=$threads cargo test -q -p sf-core --test one_region > /dev/null 2>&1 || {
        echo "error: sf-core plan tests failed (SF_THREADS=$threads)" >&2
        exit 1
    }
done

echo "==> chaos smoke on 1 replica (seeded fault schedule, conservation + reproducibility)"
# Runs the smoke schedule twice through the sf-chaos engine against a
# fleet of one; exits non-zero if any request is lost, any scene boundary
# fails to conserve or reconcile, a scene contract breaks (exact flood
# shed count, stale work executed, a panicked batch served), or the two
# runs' fingerprints differ.
./target/release/roadseg chaos --smoke

echo "==> chaos smoke on 2 replicas (replica kill, hot swap, shadow deploy)"
# The same engine and schedule plus its kill storm; exits non-zero on a
# deploy casualty, a nonzero shadow diff, a leg that failed instead of
# redirecting, or same-seed fingerprint divergence. Seed 7 routes queued
# work onto the victim, so the kill really redirects.
./target/release/roadseg chaos --smoke --replicas 2 --seed 7

echo "==> soak smoke (weather fronts + multi-LiDAR rig + fault bursts, long-haul) on 1, 2 and 4 threads"
# The engine on rig traffic: the CI-sized 240-frame scenario twice against
# a 3-replica fleet; exits non-zero unless every window conserves the
# fleet ledger, the scratch-arena peak plateaus, the burst source's
# breaker trips and re-closes, and the two runs' fingerprints are
# identical. A rig frame is a parallel region (one job per mount plus the
# camera view), so the plateau and the fingerprints must hold on every
# pool size, and so must the renderer's own properties: the obstacle
# reject against the every-obstacle reference, a frame against the serial
# composition of its parts, the caller's arena staying flat, a nested
# render.
for threads in 1 2 4; do
    SF_THREADS=$threads ./target/release/roadseg soak --smoke
    SF_THREADS=$threads cargo test -q -p sf-scene -p sf-dataset > /dev/null 2>&1 || {
        echo "error: sf-scene/sf-dataset tests failed (SF_THREADS=$threads)" >&2
        exit 1
    }
done

echo "==> load-generator smoke on 1 replica (dynamic batching server end-to-end)"
# Tiny net, 4 clients x 6 requests through a fleet of one; --smoke exits
# non-zero unless every request was served (zero dropped, rejected, or
# poisoned) and the ledger reconciles.
./target/release/roadseg fleet-bench --smoke --replicas 1

echo "==> load-generator smoke on 2 replicas (routing + mid-run kill/revive/hot-swap)"
# 2 replicas under live load with a kill, a revival and a retrained-model
# hot swap mid-run; --smoke exits non-zero unless every request is served
# and the fleet ledger reconciles with zero failed legs.
./target/release/roadseg fleet-bench --smoke --kill --deploy --replicas 2

echo "==> chaos + CLI suites, 10x under SF_THREADS=1,2,4 (no flaky invariants)"
# The engine's invariants (per-run scratch plateau included) must hold on
# any pool size and under any test interleaving, every time.
for threads in 1 2 4; do
    for run in $(seq 1 10); do
        SF_THREADS=$threads cargo test -q -p sf-chaos -p sf-cli > /dev/null 2>&1 || {
            echo "error: sf-chaos/sf-cli tests failed (SF_THREADS=$threads, run $run)" >&2
            exit 1
        }
    done
    echo "    ok: 10/10 green with SF_THREADS=$threads"
done

echo "==> repo benchmark smoke (all four workloads build, run and self-check)"
bash benchmark/run.sh --smoke

echo "==> int8 quantization smoke (exp_quant sweep at quick scale)"
# Runs the calibration-size x batch-size sweep end to end: weight
# compression ~4x, bounded MaxF delta, bit-stable int8 outputs.
cargo test -q -p sf-bench --test experiments_smoke quant_smoke
./target/release/exp_quant --quick > /dev/null

echo "==> int8 parity gate (quantize round trip + infer --int8 agreement)"
# Trains a tiny checkpoint, quantizes it to an SFM1 v3 file, re-evaluates
# the quantized file through the transparent f32 loader, and gates on the
# int8-vs-f32 classification agreement of a seeded generated frame.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/roadseg train --out "$tmp/model.sfm" --epochs 1 \
    --train-per-category 1 --test-per-category 1 > /dev/null
./target/release/roadseg quantize --model "$tmp/model.sfm" \
    --out "$tmp/model.int8.sfm" --calib-samples 2
./target/release/roadseg eval --model "$tmp/model.int8.sfm" \
    --test-per-category 1 > /dev/null
./target/release/roadseg generate --out "$tmp/frames" --count 1 > /dev/null
rgb="$(ls "$tmp"/frames/*.rgb.ppm | head -1)"
depth="$(ls "$tmp"/frames/*.depth.pgm | head -1)"
./target/release/roadseg infer --model "$tmp/model.sfm" \
    --rgb "$rgb" --depth "$depth" --out "$tmp/overlay.ppm" \
    --int8 --parity-min 0.9

echo "==> hostile checkpoint manifests (typed error before any allocation)"
# A first line naming a zero-width stage, a 576 GB network or 64 stages
# used to panic or abort inside network construction. Each must now be
# refused from the manifest alone: non-zero exit, an `error:` line, no
# panic and no allocation failure.
many="$(printf '4,%.0s' $(seq 1 63))4"
for channels in 4,0,8 4,4000000000,8 "$many"; do
    printf 'roadseg-v1 scheme=baseline width=96 height=32 channels=%s shared=1 depth=1 seed=1\n' \
        "$channels" > "$tmp/hostile.sfm"
    if out="$(./target/release/roadseg eval --model "$tmp/hostile.sfm" 2>&1)"; then
        echo "error: hostile manifest channels=$channels was accepted" >&2
        exit 1
    fi
    if ! grep -q '^error:' <<< "$out" || grep -qE 'panicked|allocation' <<< "$out"; then
        echo "error: hostile manifest channels=$channels: $out" >&2
        exit 1
    fi
done
echo "    ok: 3/3 hostile manifests rejected with a typed error"

echo "==> guard: no deprecated-API escape hatches"
# The one-shot predict and submit_with_deadline shims are gone; an
# #[allow(deprecated)] in crate code would let a resurrected shim slip
# past clippy's -D warnings.
if grep -rn "allow(deprecated)" crates/; then
    echo "error: allow(deprecated) found — migrate to the current API instead" >&2
    exit 1
fi
echo "    ok: no allow(deprecated) in crates/"

echo "==> ci.sh: all green"
