#!/usr/bin/env bash
# check_bench.sh BENCH_OUTPUT BASELINE_FILE [COMPARE_OUT]
#
# Gates CI on the simulator hot paths: reads allocs/op (and, for the
# micro-benchmarks, ns/op; for the whole-rig benches, B/op; for the
# daemon's memory benches, the retained bytes they report) for each gated
# benchmark from `go test -bench` output and fails on regressions against
# the checked-in baseline.
#
#   - allocs/op: fail beyond +20% of baseline. A zero baseline is a hard
#     gate: the benchmark must stay allocation-free.
#   - B/op: same +20% rule. A count cannot see a few large allocations
#     (sample arrays re-grown by append were 5.8 MB of 7.7 MB behind 43
#     of 5492 allocations), so the bytes are gated where they matter:
#     the whole-rig throughput bench and the session-churn bench, where
#     a larger first allocation per flow lowers the count and raises the
#     bytes, and the daemon's warm job, where a row re-encoded or
#     copied per job shows in the bytes.
#   - retained bytes (b.ReportMetric): same +20% rule. What a finished
#     nimbus-svc job, or a finished job queued in a restart's replay
#     pass, keeps on the live heap is the daemon's memory; an allocation
#     count cannot see a field that outlives the job.
#   - requests per warm job (b.ReportMetric): same +20% rule, which on
#     an integer baseline of 1 fails a second request (an event stream or
#     results fetch back after a job answered inside POST /jobs).
#   - ns/op: fail beyond 3x baseline. The band is deliberately wide —
#     CI hardware varies and these benches run at small -benchtime — so
#     it only catches order-of-magnitude regressions (an accidental
#     alloc-per-packet, a dropped fast path), not few-percent drift.
#
# When COMPARE_OUT is given, a before/after table of every gated metric
# is written there (uploaded as a CI artifact alongside the profiles).
set -euo pipefail

bench_out=$1
baseline_file=$2
compare_out=${3:-}

# benchmark-name alloc-baseline-key ns-baseline-key bytes-baseline-key
# ("-" = no such gate), one benchmark per line.
gates="
BenchmarkSimulatorThroughput allocs_per_op - bytes_per_op
BenchmarkTopologyThroughput topo_allocs_per_op - -
BenchmarkDetectorTick detectortick_allocs_per_op detectortick_ns_per_op -
BenchmarkLinkPerPacket link_allocs_per_op link_ns_per_op -
BenchmarkSchedulerChurn/10k schedchurn_allocs_per_op schedchurn_ns_per_op -
BenchmarkSchedulerAckClock schedackclock_allocs_per_op schedackclock_ns_per_op -
BenchmarkFluidLink fluidlink_allocs_per_op fluidlink_ns_per_op -
BenchmarkSweepFluidVsPacket sweepfluid_allocs_per_op - -
BenchmarkSessionChurn sessionchurn_allocs_per_op - sessionchurn_bytes_per_op
BenchmarkDeriveSeed deriveseed_allocs_per_op - -
BenchmarkWarmJob warmjob_allocs_per_op - warmjob_bytes_per_op
"

# benchmark-name unit baseline-key: a metric the benchmark reports
# itself, gated by the +20% rule.
metric_gates="
BenchmarkWarmJob retained-B/job warmjob_retained_bytes_per_job
BenchmarkWarmJob requests/job warmjob_requests_per_job
BenchmarkReplayFinished retained-B/queued-job replay_retained_bytes_per_queued_job
"

[ -n "$compare_out" ] && printf '%-36s %-12s %10s %10s %10s %s\n' \
    benchmark metric current baseline limit status > "$compare_out"

# extract BENCH UNIT: the value of the UNIT column for the exactly-named
# benchmark (go appends -GOMAXPROCS to the name in the output).
extract() {
    awk -v b="$1" -v unit="$2" '$1 ~ "^"b"(-[0-9]+)?$" {
        for (i = 2; i <= NF; i++) if ($i == unit) print $(i-1)
    }' "$bench_out"
}

baseline_of() {
    awk -F= -v k="^$1=" '$0 ~ k { print $2 }' "$baseline_file"
}

record() { # bench metric current baseline limit status
    [ -n "$compare_out" ] && printf '%-36s %-12s %10s %10s %10s %s\n' \
        "$1" "$2" "$3" "$4" "$5" "$6" >> "$compare_out"
    echo "$1 $2: current=$3 baseline=$4 limit=$5 [$6]"
}

# count_gate BENCH UNIT KEY: the +20% rule on a metric with an integer
# baseline (the current value may be fractional).
count_gate() {
    local bench=$1 unit=$2 key=$3 current baseline limit status
    current=$(extract "$bench" "$unit")
    if [ -z "$current" ]; then
        echo "check_bench: no $bench $unit in $bench_out" >&2
        fail=1
        return
    fi
    baseline=$(baseline_of "$key")
    if [ -z "$baseline" ]; then
        echo "check_bench: no $key= line in $baseline_file" >&2
        fail=1
        return
    fi
    limit=$(( baseline + baseline / 5 ))
    status=OK
    if awk -v c="$current" -v l="$limit" 'BEGIN { exit !(c > l) }'; then
        status=FAIL
        echo "check_bench: FAIL — $bench $unit regressed beyond 20% of baseline" >&2
        echo "If the increase is intentional, update $baseline_file in the same PR." >&2
        fail=1
    fi
    record "$bench" "$unit" "$current" "$baseline" "$limit" "$status"
}

fail=0
while read -r bench akey nskey bkey; do
    [ -z "$bench" ] && continue

    count_gate "$bench" allocs/op "$akey"
    [ "$bkey" != "-" ] && count_gate "$bench" B/op "$bkey"

    [ "$nskey" = "-" ] && continue
    ns=$(extract "$bench" ns/op)
    if [ -z "$ns" ]; then
        echo "check_bench: no $bench ns/op in $bench_out" >&2
        fail=1
        continue
    fi
    nsbase=$(baseline_of "$nskey")
    if [ -z "$nsbase" ]; then
        echo "check_bench: no $nskey= line in $baseline_file" >&2
        fail=1
        continue
    fi
    # ns/op may be fractional; compare in awk.
    nslimit=$(awk -v b="$nsbase" 'BEGIN { printf "%d", 3 * b }')
    status=OK
    if awk -v c="$ns" -v l="$nslimit" 'BEGIN { exit !(c > l) }'; then
        status=FAIL
        echo "check_bench: FAIL — $bench ns/op ($ns) beyond 3x baseline ($nsbase)" >&2
        echo "If the slowdown is intentional, update $baseline_file in the same PR." >&2
        fail=1
    fi
    record "$bench" ns/op "$ns" "$nsbase" "$nslimit" "$status"
done <<< "$gates"

while read -r bench unit key; do
    [ -z "$bench" ] && continue
    count_gate "$bench" "$unit" "$key"
done <<< "$metric_gates"

# Relative gate: the fluid cross-traffic path must execute at least 3x
# fewer scheduler events than the per-packet path on the cross-heavy
# sweep cell. The ratio is a simulator invariant (event counts are
# deterministic per seed), so the gate is tight where the wall-clock
# bands cannot be — it is the fluid path's reason to exist.
fluid_ratio=$(extract "BenchmarkSweepFluidVsPacket" events_ratio)
if [ -n "$fluid_ratio" ]; then
    if awk -v r="$fluid_ratio" 'BEGIN { exit !(r < 3) }'; then
        echo "check_bench: FAIL — fluid cross traffic only ${fluid_ratio}x fewer events than per-packet (need >= 3x)" >&2
        fail=1
    else
        echo "BenchmarkSweepFluidVsPacket event reduction: ${fluid_ratio}x over per-packet [OK]"
    fi
fi

[ "$fail" -eq 0 ] && echo "check_bench: OK"
exit "$fail"
