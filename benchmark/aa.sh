#!/usr/bin/env bash
# benchmark/aa.sh OUTDIR [SEEDS] [TRACED_SEEDS]
#
# The A/A check: two sets of runs of the same code, interleaved on the
# same host, compared with the benchmark's own -compare. Every workload
# BENCHMARK.json lists (or those WORKLOADS names) runs untraced on seeds
# 1..SEEDS (default 10) in both sets, the two runs
# on a seed back to back and the set that goes first alternating by seed,
# then traced on seeds 1..TRACED_SEEDS (default 2). Writes OUTDIR/A.jsonl,
# OUTDIR/B.jsonl and OUTDIR/aa.md. An accepted benchmark reads "same" on
# every end-to-end row, every spread below its bound, and "exact" on every
# count and simulated metric.
#
# With OTHER=/path/to/another/checkout set A is that checkout's benchmark
# instead: the same interleaving then compares two versions (A = the
# other checkout, say the parent; B = this one), which is how a change is
# judged.
#
# The harness is a module of its own, so the repository's go vet ./... and
# go test ./... do not reach it; this script runs both on it first.
set -euo pipefail

out=${1:?usage: aa.sh OUTDIR [SEEDS] [TRACED_SEEDS]}
seeds=${2:-10}
traced_seeds=${3:-2}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
other=${OTHER:+$(cd "$OTHER" && pwd)/benchmark}
mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -f "$out/A.jsonl" "$out/B.jsonl"

check() { # benchmark dir: vet and self-test the harness, with run.sh's build cache
    local build
    build=$(cd "$1/.." && pwd)/.bench_build
    mkdir -p "$build/tmp"
    (cd "$1" && GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
        GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
        sh -c 'go vet ./... && go test -count=1 ./...') >&2
}
check "$here"
if [[ -n $other ]]; then check "$other"; fi

# The workloads BENCHMARK.json lists; WORKLOADS="..." names others (the
# extras cross_fluid and svc_cold, or fewer).
workloads=${WORKLOADS:-"sweep_canonical detector_dense churn_sessions svc_warm"}

run() { # set workload seed trace
    local dir=$here
    if [[ $1 == A && -n $other ]]; then dir=$other; fi
    bash "$dir/run.sh" -workload "$2" -seed "$3" -trace "$4" -out "$out/$1.jsonl" >/dev/null
}

for seed in $(seq 1 "$seeds"); do
    for w in $workloads; do
        if (( seed % 2 )); then order="A B"; else order="B A"; fi
        for set in $order; do
            echo "untraced $w seed $seed set $set" >&2
            run "$set" "$w" "$seed" 0
        done
    done
done
for seed in $(seq 1 "$traced_seeds"); do
    for w in $workloads; do
        for set in A B; do
            echo "traced $w seed $seed set $set" >&2
            run "$set" "$w" "$seed" 1
        done
    done
done

bash "$here/run.sh" -compare "$out/A.jsonl" "$out/B.jsonl" > "$out/aa.md"
echo "wrote $out/aa.md" >&2
