#!/usr/bin/env bash
# update_pins.sh
#
# Rewrites every measured output pin from what the code outputs now and
# prints one line per pin that moved. A change that is meant to move
# outputs runs this one command and records its printed list in
# CHANGES.md; run with nothing to update, it changes no file.
#
#  1. The Go golden files: `go test ./internal/runner ./internal/exp
#     ./internal/cc -update` (their testdata/*.golden,
#     testdata/expand_golden.txt and testdata/list/*.txt). Rule and shape
#     checks still run; the pins are written whether or not they pass,
#     and the ones that fail are printed (the script then exits 1).
#  2. The report digests: scripts/check_reports.sh -update (~3 min on 2
#     cores).
#  3. The canonical sweep: `nimbus-bench -grid BENCH_grid.json -workers 1`
#     into BENCH_runner.json, written only when it differs from the
#     committed file once wall_sec is zeroed.
#
# A moved pin prints as "FILE: NAME: OLD -> NEW"; for BENCH_runner.json
# NAME is "CELL FIELD", for the digest files it is the report id, and a
# -list listing prints its changed lines. benchmark/harness_test.go pins
# the canonical sweep's event total too; this script leaves the benchmark
# module alone and says so when that total moves.
set -euo pipefail
export LC_ALL=C

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

# pindiff LABEL OLD NEW: one line per NAME<TAB>VALUE pin whose value
# differs between OLD and NEW, in NEW's order, then the pins NEW lacks.
pindiff() {
    awk -F'\t' -v f="$1" '
    { k = $1; v = substr($0, length($1) + 2) }
    NR == FNR { old[k] = v; keys[++n] = k; next }
    !(k in old) { print f ": " k ": (none) -> " v; next }
    old[k] != v { print f ": " k ": " old[k] " -> " v }
    { delete old[k] }
    END { for (i = 1; i <= n; i++) if (keys[i] in old) print f ": " keys[i] ": " old[keys[i]] " -> (none)" }
    ' "$2" "$3"
}

# 1. Go golden files.
golden="internal/runner/testdata internal/exp/testdata internal/cc/testdata"
for d in $golden; do
    mkdir -p "$tmp/before/$d"
    cp -R "$d/." "$tmp/before/$d"
done
echo "update_pins: go test -update" >&2
if ! go test ./internal/runner ./internal/exp ./internal/cc -update >"$tmp/gotest.txt" 2>&1; then
    echo "update_pins: with the pins rewritten, these checks still fail:" >&2
    grep -v '^ok ' "$tmp/gotest.txt" >&2
    status=1
fi
for f in $(find $golden -type f | sort); do
    old="$tmp/before/$f"
    [ -f "$old" ] || old=/dev/null
    cmp -s "$old" "$f" && continue
    case "$f" in
    internal/exp/testdata/list/*) diff "$old" "$f" | sed -n "s|^\([<>]\) |$f: \1 |p" ;;
    *) pindiff "$f" "$old" "$f" ;;
    esac
done >>"$tmp/moved"

# 2. Report digests: NAME is the report id, VALUE its SHA-256.
digests() { awk '!/^#/ { print $2 "\t" $1 }' "$1"; }
for f in scripts/reports-seed1.sha256 scripts/reports-seed1-full.sha256; do
    digests "$f" >"$tmp/$(basename "$f").before"
done
echo "update_pins: scripts/check_reports.sh -update" >&2
scripts/check_reports.sh -update >&2
for f in scripts/reports-seed1.sha256 scripts/reports-seed1-full.sha256; do
    pindiff "$f" "$tmp/$(basename "$f").before" <(digests "$f")
done >>"$tmp/moved"

# 3. The canonical sweep.
echo "update_pins: nimbus-bench -grid BENCH_grid.json -workers 1" >&2
go build -o "$tmp/nimbus-bench" ./cmd/nimbus-bench
"$tmp/nimbus-bench" -grid BENCH_grid.json -workers 1 -out "$tmp/bench.json" >/dev/null 2>"$tmp/bench.log" ||
    { cat "$tmp/bench.log" >&2; exit 1; }
nowall() { sed -E 's/("wall_sec": )[-+.0-9eE]+/\10/' "$1"; }
if ! cmp -s <(nowall BENCH_runner.json) <(nowall "$tmp/bench.json"); then
    cells() {
        jq -r '.[] | .scenario.name as $c | del(.wall_sec, .scenario) | paths(scalars) as $p
            | "\($c) \($p | map(tostring) | join("."))\t\(getpath($p))"' "$1"
    }
    pindiff BENCH_runner.json <(cells BENCH_runner.json) <(cells "$tmp/bench.json") >>"$tmp/moved"
    old=$(jq '[.[].events] | add' BENCH_runner.json)
    new=$(jq '[.[].events] | add' "$tmp/bench.json")
    if [ "$old" != "$new" ]; then
        echo "BENCH_runner.json: canonical event total: $old -> $new; benchmark/harness_test.go still pins $old, and updating it belongs to the benchmark-only change" >>"$tmp/moved"
    fi
    cp "$tmp/bench.json" BENCH_runner.json
fi

if [ -s "$tmp/moved" ]; then
    echo "update_pins: $(wc -l <"$tmp/moved") pin(s) moved:" >&2
    cat "$tmp/moved"
else
    echo "update_pins: no pin moved" >&2
fi
exit $status
