#!/usr/bin/env bash
# check_sweeps.sh [PARENT_CHECKOUT]
#
# The byte-identity gate for sweeps, the counterpart of check_reports.sh:
# runs every grid in the table below through nimbus-sim at -workers 1 and
# -workers 4, fails if any row carries a non-empty err (two files of
# identical error rows are not a pass), removes what is wall-clock
# (wall_sec in JSON; wall_sec and err, the last two columns, in CSV) and
# requires the two worker counts to agree byte for byte: each cell owns
# its scheduler and random streams, so the pool's size must not show.
#
# Given a parent checkout (say a `git archive` of the parent commit), it
# builds that tree's nimbus-sim too and requires every grid to equal the
# parent's output as well: how a refactor of runner/exp is checked. A
# grid the parent's binary rejects as a usage error (exit 2: an axis
# combination this change introduces) has nothing to compare against and
# is reported as skipped.
#
# Last, it runs the canonical sweep, BENCH_grid.json, through
# `nimbus-bench -grid` at -workers 1 and -workers 4 and requires both to
# equal the committed BENCH_runner.json once wall_sec is zeroed, so the
# snapshot cannot drift from the simulator unnoticed (~2 s on 2 cores).
set -euo pipefail
set -f # specs like nimbus*2+cubic must not glob

cd "$(dirname "$0")/.."
parent=${1:+$(cd "$1" && pwd)}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/new/" ./cmd/nimbus-sim ./cmd/nimbus-bench
if [ -n "$parent" ]; then
    (cd "$parent" && go build -o "$tmp/old/nimbus-sim" ./cmd/nimbus-sim)
fi

# name|format|nimbus-sim flags (no spaces inside a value). One axis per
# row that the others lack:
#   link     parameterized specs beside bare names, time-varying links
#   mix      heterogeneous flow mixes, a late joiner
#   topo     multi-hop presets: canonicalization and per-hop metrics
#   churn    session workloads (a replayed trace too), thousands of
#            short flows per cell
#   trace    cross=trace spawns finite flows at run time from the
#            cross-traffic side (workload.Generator again)
#   fluid    the cross aggregate as a rate process beside the exact path
#   mixchurn a flow mix with session churn around it
#   csv      the second emitter, with respelt axis values ("single",
#            "off", "24.0") going through exp.CanonicalGrid
#   bare/respelt  one sweep spelt two ways; see `same` below
grids='link|json|-scheme nimbus(pulse=0.125,mu=est),cubic -rate 24 -link-trace cell-ramp,outage -cross poisson -cross-rate 4 -dur 5s
mix|json|-flows nimbus+cubic,nimbus*2+bbr@2 -rate 24,48 -dur 5s
topo|json|-scheme nimbus,cubic -topology access-hop,parking-lot,rev-congested -rate 24 -dur 5s
churn|json|-scheme nimbus,cubic -churn bulk(load=24),web(load=12),trace(src=flash-crowd) -rate 48 -dur 8s
trace|json|-scheme nimbus,cubic -cross trace -cross-rate 12 -rate 48 -dur 8s
fluid|json|-scheme nimbus,cubic -cross cbr,poisson -cross-rate 42 -fluid off,on,dt=5ms -rate 48 -dur 5s
mixchurn|json|-flows nimbus*2+cubic,nimbus+bbr@2 -churn web(load=12),bulk(load=12) -rate 48 -dur 6s
csv|csv|-scheme nimbus,cubic -topology single,access-hop -churn bulk(load=24.0) -fluid off -rate 48 -dur 4s
bare|json|-scheme nimbus,cubic -cross poisson -cross-rate 12 -rate 24 -dur 4s
respelt|json|-scheme nimbus,cubic -cross poisson -cross-rate 12 -rate 24 -dur 4s -topology single -fluid off'
# Pairs of grids that are one set of cells by exp.CanonicalGrid and must
# be byte-identical.
same='bare respelt'

# run BIN OUT FLAGS...: one sweep; the normalized result lands in OUT.
# Returns nimbus-sim's status when it wrote nothing.
run() {
    local bin=$1 out=$2 status=0
    shift 2
    "$bin" "$@" -rtt 20ms -buf 50ms -out "$out" >/dev/null 2>"$out.log" || status=$?
    if [ ! -s "$out" ]; then
        return $((status ? status : 1))
    fi
    case $out in
    *.json)
        jq -e 'all(.[]; (.err // "") == "")' "$out" >/dev/null ||
            { echo "check_sweeps: FAIL — $out has rows with a non-empty err" >&2; cat "$out.log" >&2; exit 1; }
        jq 'map(.wall_sec = 0)' "$out" >"$out.norm"
        ;;
    *.csv)
        if tail -n +2 "$out" | grep -v ',$' >&2; then
            echo "check_sweeps: FAIL — $out has rows with a non-empty err" >&2
            exit 1
        fi
        grep -q ',topology,churn,fluid_cross,' "$out" ||
            { echo "check_sweeps: FAIL — $out lacks the topology, churn and fluid_cross columns" >&2; exit 1; }
        rev "$out" | cut -d, -f3- | rev >"$out.norm"
        ;;
    esac
}

n=0 skipped=0
while IFS='|' read -r name format flags; do
    n=$((n + 1))
    for w in 1 4; do
        # shellcheck disable=SC2086 # flags are split on purpose
        run "$tmp/new/nimbus-sim" "$tmp/new/$name.w$w.$format" $flags -workers $w ||
            { echo "check_sweeps: FAIL — grid $name wrote nothing at -workers $w" >&2; cat "$tmp/new/$name.w$w.$format.log" >&2; exit 1; }
    done
    cmp "$tmp/new/$name.w1.$format.norm" "$tmp/new/$name.w4.$format.norm" ||
        { echo "check_sweeps: FAIL — grid $name differs between -workers 1 and -workers 4" >&2; exit 1; }
    if [ -n "$parent" ]; then
        status=0
        # shellcheck disable=SC2086
        run "$tmp/old/nimbus-sim" "$tmp/old/$name.$format" $flags -workers 4 || status=$?
        if [ $status = 2 ]; then
            echo "check_sweeps: grid $name skipped against the parent, whose nimbus-sim rejects it: $(head -1 "$tmp/old/$name.$format.log")"
            skipped=$((skipped + 1))
        elif [ $status != 0 ]; then
            echo "check_sweeps: FAIL — the parent's nimbus-sim wrote nothing for grid $name" >&2
            cat "$tmp/old/$name.$format.log" >&2
            exit 1
        else
            cmp "$tmp/old/$name.$format.norm" "$tmp/new/$name.w4.$format.norm" ||
                { echo "check_sweeps: FAIL — grid $name differs from the parent's" >&2; exit 1; }
        fi
    fi
done <<<"$grids"

# shellcheck disable=SC2086
set -- $same
while [ $# -ge 2 ]; do
    cmp "$tmp/new/$1.w1.json.norm" "$tmp/new/$2.w1.json.norm" ||
        { echo "check_sweeps: FAIL — grids $1 and $2 are one sweep spelt two ways and differ" >&2; exit 1; }
    shift 2
done

jq 'map(.wall_sec = 0)' BENCH_runner.json >"$tmp/bench.want"
for w in 1 4; do
    out=$tmp/new/bench.w$w.json
    "$tmp/new/nimbus-bench" -grid BENCH_grid.json -workers $w -out "$out" >/dev/null 2>"$out.log" ||
        { echo "check_sweeps: FAIL — nimbus-bench -grid BENCH_grid.json -workers $w" >&2; cat "$out.log" >&2; exit 1; }
    jq 'map(.wall_sec = 0)' "$out" | cmp - "$tmp/bench.want" ||
        { echo "check_sweeps: FAIL — BENCH_grid.json at -workers $w differs from BENCH_runner.json; if the change is meant to move it, run scripts/update_pins.sh and declare the delta" >&2; exit 1; }
done

msg="check_sweeps: $n grids byte-identical at -workers 1 and 4"
if [ -n "$parent" ]; then
    msg="$msg, and $((n - skipped)) of them equal to $parent's"
fi
echo "$msg; BENCH_grid.json equals BENCH_runner.json at -workers 1 and 4"
