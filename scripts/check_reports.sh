#!/usr/bin/env bash
# check_reports.sh [-update]
#
# The byte-identity gate for the experiment reports: runs every registry
# id in quick mode at seed 1 (`nimbus-bench -run all -seed 1`), splits the
# output per id, drops what is wall-clock (the "[N.Ns wall]" in each
# header, and the last column of the fidelity table; its "ev ratio"
# column is simulated and stays), and compares each report's SHA-256 with
# scripts/reports-seed1.sha256.
#
# A refactor of internal/exp or anything under it must leave every digest
# unchanged. A change that is meant to alter a report says so, reruns
# with -update, and commits the new digests with the delta recorded in
# CHANGES.md.
set -euo pipefail
export LC_ALL=C # the digest file is in glob order

cd "$(dirname "$0")/.."
want=scripts/reports-seed1.sha256
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/nimbus-bench" ./cmd/nimbus-bench
"$tmp/nimbus-bench" -run all -seed 1 > "$tmp/all.txt"

# One file per "==== id (title) [N.Ns wall] ====" section.
awk -v dir="$tmp" '
    /^==== [a-zA-Z0-9]+ \(.*\) \[[0-9.]+s wall\] ====$/ {
        if (out != "") close(out)
        id = $2
        out = dir "/" id ".txt"
        sub(/ \[[0-9.]+s wall\] ====$/, " ====")
    }
    id == "fidelity" && /x +[0-9.]+x$/ { sub(/ +[0-9.]+x$/, "") }
    out != "" { print > out }
' "$tmp/all.txt"

{
    echo "# SHA-256 of each nimbus-bench report at seed 1, quick mode, wall-clock"
    echo "# fields removed; written by scripts/check_reports.sh -update. The digests"
    echo "# are for amd64, where Go does not fuse multiply-add: on arm64, ppc64le"
    echo "# or s390x floating-point results may differ in the last digits."
    for f in "$tmp"/*.txt; do
        [ "$f" = "$tmp/all.txt" ] && continue
        printf '%s  %s\n' "$(sha256sum < "$f" | cut -d' ' -f1)" "$(basename "$f" .txt)"
    done
} > "$tmp/got.sha256"

if [ "${1:-}" = "-update" ]; then
    cp "$tmp/got.sha256" "$want"
    echo "check_reports: wrote $(grep -vc '^#' "$want") digests to $want"
    exit 0
fi

if ! diff -u "$want" "$tmp/got.sha256" > "$tmp/diff"; then
    echo "check_reports: FAIL — reports differ from $want:" >&2
    grep '^[-+][0-9a-f]' "$tmp/diff" >&2
    echo "check_reports: rerun with -update only if the change is meant to alter these reports" >&2
    exit 1
fi
echo "check_reports: $(grep -vc '^#' "$want") reports match $want"
