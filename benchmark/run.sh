#!/usr/bin/env bash
# The benchmark's single entry point. Run from the repo root (or
# anywhere: paths resolve from this file).
#
#   benchmark/run.sh                      full protocol: 4 workloads x 5 fresh-process
#                                         repetitions untraced, then one traced pass each;
#                                         prints every metric as `name unit value n spread`
#   benchmark/run.sh --smoke              same, 1 repetition of ~2 s of work (for CI)
#   benchmark/run.sh --seed N             another input seed (default 2022)
#   benchmark/run.sh --compare A.json B.json
#                                         verdict per (workload, end-to-end metric)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, one process; the last stdout line is the
#                                         result object (this is what BENCHMARK.json's
#                                         `command` invokes)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "error: $root holds no crates/ — the benchmark links the repo's library crates" >&2
    exit 2
fi

# A relative CARGO_TARGET_DIR (the acceptance driver sets `.bench_build`)
# means "relative to where the command was started".
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# nproc is 2 where this benchmark was sized: pin the sf-runtime pool so a
# bigger box measures the same configuration.
export SF_THREADS="${SF_THREADS:-2}"
export SF_BENCH_OUT="${SF_BENCH_OUT:-$here/out}"

# Build the library crates with the ROOT manifest's [profile.release]:
# this package is its own workspace, so cargo would otherwise ignore it,
# and a later profile change must be measured, not silently dropped.
profile_summary=""
while IFS='=' read -r key value; do
    [ -n "$key" ] || continue
    export "CARGO_PROFILE_RELEASE_$key=$value"
    profile_summary="$profile_summary ${key,,}=$value"
done < <(awk '
    /^\[/ { in_release = ($0 == "[profile.release]"); next }
    in_release && /^[a-z][a-z0-9-]*[ \t]*=/ {
        split($0, kv, "=")
        key = toupper(kv[1]); gsub(/[ \t]/, "", key); gsub(/-/, "_", key)
        value = substr($0, index($0, "=") + 1)
        sub(/[ \t]*#.*$/, "", value); gsub(/^[ \t]+|[ \t]+$/, "", value); gsub(/"/, "", value)
        print key "=" value
    }' "$root/Cargo.toml")

build() {
    # stdout stays clean: in single-run mode its last line is the result.
    cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
}
bin="$target/release/sf-benchmark"

case "${1:-}" in
--workload)
    build
    exec "$bin" run "$@"
    ;;
--compare)
    [ $# -eq 3 ] || { echo "usage: run.sh --compare A.json B.json" >&2; exit 2; }
    build
    exec "$bin" compare "$2" "$3"
    ;;
esac

repetitions=5
seconds=7
seed=2022
while [ $# -gt 0 ]; do
    case "$1" in
    --smoke) repetitions=1; seconds=2 ;;
    --seed) seed="$2"; shift ;;
    *) echo "error: unknown argument \`$1\` (see the header of $0)" >&2; exit 2 ;;
    esac
    shift
done

build
out="$SF_BENCH_OUT"
mkdir -p "$out"
rm -f "$out"/rep_*.txt "$out"/traced_*.txt "$out"/trace_*.json "$out"/report.json

rustc_version="$(rustc --version 2>/dev/null || echo unknown)"
git_rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
load="$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)"
cat > "$out/meta.json" <<EOF
{
  "nproc": $(nproc),
  "sf_threads": $SF_THREADS,
  "rustc": "$rustc_version",
  "git_rev": "$git_rev",
  "profile_release": "${profile_summary# }",
  "load_1m_at_start": $load,
  "seed": $seed,
  "seconds": $seconds,
  "repetitions": $repetitions
}
EOF
echo "# nproc $(nproc), SF_THREADS $SF_THREADS, $rustc_version, rev $git_rev, profile.release {${profile_summary# }}, load $load"

status=0
workloads="drive_closed stream_open saturate_closed offline_int8"
# Repetitions interleave the workloads so a slow minute on the box hits
# every workload once rather than one workload five times.
for rep in $(seq 1 "$repetitions"); do
    for workload in $workloads; do
        echo "# $workload: repetition $rep/$repetitions" >&2
        "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            > "$out/rep_${workload}_${rep}.txt" || status=1
    done
done
for workload in $workloads; do
    echo "# $workload: traced pass" >&2
    "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 \
        > "$out/traced_${workload}.txt" || status=1
done

"$bin" report "$out" || status=1
exit $status
