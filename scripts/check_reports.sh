#!/usr/bin/env bash
# check_reports.sh [-update]
#
# The byte-identity gate for the experiment reports: runs every registry
# id at seed 1, in quick mode (`nimbus-bench -run all -seed 1`) and at the
# full horizons (`... -full`), splits each output per id, drops what is
# wall-clock (the "[N.Ns wall]" in each header, and the last column of the
# fidelity table; its "ev ratio" column is simulated and stays), and
# compares each report's SHA-256 with scripts/reports-seed1.sha256 (quick)
# and scripts/reports-seed1-full.sha256 (full). Most figures run other
# horizons at -full, so the quick pass alone leaves those cells unpinned.
# It then renders the quick reports again at `-workers 1` and compares
# them, stripped the same way, with the default-pool output: report cells
# run on the shared worker pool, and the pool's size must not show
# (-update only writes the digests, so it skips this render). Last,
# it fails if an "expected shape" line is written anywhere in internal/exp
# but the one renderer (table.go), if a figure builds a rig by hand
# (NewRig, AddFlow) instead of describing a scoreCell, or if it assigns a
# Nimbus flow's OnTick hook instead of chaining onto it (onTick), which
# would discard whatever scoreCell.build attached.
#
# A refactor of internal/exp or anything under it must leave every digest
# unchanged. A change that is meant to alter a report says so and runs
# scripts/update_pins.sh, which calls this script with -update (writing
# both digest files) and prints the moved digests for CHANGES.md.
set -euo pipefail
export LC_ALL=C # the digest files are in glob order

cd "$(dirname "$0")/.."
want=scripts/reports-seed1.sha256
want_full=scripts/reports-seed1-full.sha256
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/nimbus-bench" ./cmd/nimbus-bench
update=false
[ "${1:-}" = "-update" ] && update=true
mkdir "$tmp/pool" "$tmp/w1" "$tmp/full"
"$tmp/nimbus-bench" -run all -seed 1 > "$tmp/pool/all.txt"
$update || "$tmp/nimbus-bench" -run all -seed 1 -workers 1 > "$tmp/w1/all.txt"
"$tmp/nimbus-bench" -run all -seed 1 -full > "$tmp/full/all.txt"

# sections DIR: one file per "==== id (title) [N.Ns wall] ====" section of
# DIR/all.txt, wall-clock fields removed.
sections() {
    awk -v dir="$1" '
    /^==== [a-zA-Z0-9]+ \(.*\) \[[0-9.]+s wall\] ====$/ {
        if (out != "") close(out)
        id = $2
        out = dir "/" id ".txt"
        sub(/ \[[0-9.]+s wall\] ====$/, " ====")
    }
    id == "fidelity" && /x +[0-9.]+x$/ { sub(/ +[0-9.]+x$/, "") }
    out != "" { print > out }
    ' "$1/all.txt"
    rm "$1/all.txt"
}
sections "$tmp/pool"
$update || sections "$tmp/w1"
sections "$tmp/full"

# digests DIR MODE: the digest file of DIR's reports.
digests() {
    echo "# SHA-256 of each nimbus-bench report at seed 1, $2, wall-clock"
    echo "# fields removed; written by scripts/check_reports.sh -update. The digests"
    echo "# are for amd64, where Go does not fuse multiply-add: on arm64, ppc64le"
    echo "# or s390x floating-point results may differ in the last digits."
    for f in "$1"/*.txt; do
        printf '%s  %s\n' "$(sha256sum < "$f" | cut -d' ' -f1)" "$(basename "$f" .txt)"
    done
}
digests "$tmp/pool" "quick mode" > "$tmp/got.sha256"
digests "$tmp/full" "-full" > "$tmp/got-full.sha256"

if $update; then
    cp "$tmp/got.sha256" "$want"
    cp "$tmp/got-full.sha256" "$want_full"
    echo "check_reports: wrote $(grep -vc '^#' "$want") digests to $want and $(grep -vc '^#' "$want_full") to $want_full"
    exit 0
fi

# compare WANT GOT: fail unless the digests are the committed ones.
compare() {
    if ! diff -u "$1" "$2" > "$tmp/diff"; then
        echo "check_reports: FAIL — reports differ from $1:" >&2
        grep '^[-+][0-9a-f]' "$tmp/diff" >&2
        echo "check_reports: run scripts/update_pins.sh only if the change is meant to alter these reports" >&2
        exit 1
    fi
}
compare "$want" "$tmp/got.sha256"
compare "$want_full" "$tmp/got-full.sha256"
if ! diff -r "$tmp/pool" "$tmp/w1" > "$tmp/diff"; then
    echo "check_reports: FAIL — reports at -workers 1 differ from the default pool's:" >&2
    cat "$tmp/diff" >&2
    exit 1
fi
if stray=$(grep -l 'expected shape' $(ls internal/exp/*.go | grep -v -e _test.go -e /table.go)); then
    echo "check_reports: FAIL — an expected-shape line outside the renderer (Report.Expect is the field for it):" >&2
    echo "$stray" >&2
    exit 1
fi
if stray=$(grep -n -e 'NewRig(' -e '\.AddFlow(' $(ls internal/exp/*.go | grep -v -e _test.go -e /exp.go -e /score.go)); then
    echo "check_reports: FAIL — a rig built by hand (describe a scoreCell and build it):" >&2
    echo "$stray" >&2
    exit 1
fi
if stray=$(grep -n '\.OnTick =' $(ls internal/exp/*.go | grep -v -e _test.go -e /score.go)); then
    echo "check_reports: FAIL — an OnTick hook overwritten (chain it with onTick):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "check_reports: $(grep -vc '^#' "$want") quick reports match $want, at -workers 1 too;" \
    "$(grep -vc '^#' "$want_full") -full reports match $want_full"
