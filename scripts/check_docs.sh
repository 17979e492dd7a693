#!/usr/bin/env bash
# check_docs.sh [REPO_ROOT]
#
# Gates CI on documentation coverage:
#
#   - Every CLI flag defined in cmd/*/main.go must be mentioned (as
#     "-flagname") in README.md or docs/*.md. A new flag lands with its
#     documentation or the build fails.
#   - And the reverse: every "-flagname" token in README.md or docs/*.md
#     must be a flag some cmd/*/main.go defines (or one of go test's own,
#     allow-listed below), so a deleted flag cannot survive in prose.
#   - Per binary: on a line that invokes cmd/<bin> or starts with
#     "<bin> -" (also at the start of a code span), every flag of that
#     command must be one cmd/<bin>/main.go defines, so a flag deleted
#     from one binary cannot survive on its command line because another
#     binary defines a flag of the same name.
#   - Every experiment family in exp.Families (internal/exp/registry.go)
#     must have a "## family" section in docs/experiments.md.
#   - Every HTTP route the service daemon registers (internal/svc/server.go)
#     must be mentioned verbatim ("METHOD /path") in docs/service.md.
#   - The cross-traffic kind table in docs/experiments.md must be
#     crosstraffic.Kinds (internal/crosstraffic/kinds.go), row for row:
#     name, elastic ground truth, fluid model.
#
# Flags are extracted from flag.String/Bool/Int/... call sites, families
# from the Families literal, routes from mux.HandleFunc patterns, so the
# source of truth stays the code.
set -euo pipefail

root=${1:-$(dirname "$0")/..}
cd "$root"

docs="README.md docs/*.md"
fail=0

# --- every CLI flag is documented ------------------------------------

flagdef='flag\.(String|Bool|Int|Int64|Uint|Float64|Duration)\("[^"]+"'
flags=$(grep -hoE "$flagdef" cmd/*/main.go |
    sed -E 's/.*\("([^"]+)".*/\1/' | sort -u || true)
if [ -z "$flags" ]; then
    echo "check_docs: found no flag definitions under cmd/ — extraction broken?" >&2
    exit 1
fi

for f in $flags; do
    # Match "-flag" followed by a non-flag-name character (space, comma,
    # quote, backtick, equals, end of line) so -rate doesn't satisfy
    # -rate-pattern's requirement.
    if ! grep -qE -- "-$f([^a-z0-9-]|$)" $docs; then
        echo "check_docs: FAIL — flag -$f (cmd/*/main.go) is not mentioned in README.md or docs/" >&2
        fail=1
    fi
done
n=$(echo "$flags" | wc -l)
echo "check_docs: $n CLI flags checked against $docs"

# --- every documented flag exists -------------------------------------

# go test's own flags, which the docs quote in benchmark/fuzz recipes.
gotest="bench benchtime run race fuzz fuzztime count"

# A flag token is "-name" (two or more characters, so curl -s and jq -e
# do not count) at the start of a line or after whitespace, a quote, a
# backtick, or an opening bracket — not the hyphen inside a word.
mentioned=$(grep -hoE "(^|[[:space:]\`\"'(|/\[])-[a-z][a-z0-9-]+" $docs |
    sed -E 's/^[^-]*-//' | sort -u || true)
known=$(printf '%s\n' $flags $gotest)
for f in $mentioned; do
    if ! echo "$known" | grep -qx -- "$f"; then
        echo "check_docs: FAIL — -$f is mentioned in README.md or docs/ but no cmd/*/main.go defines it" >&2
        fail=1
    fi
done
n=$(echo "$mentioned" | wc -l)
echo "check_docs: $n documented flag names checked against cmd/*/main.go"

# --- each invocation uses its own binary's flags ----------------------

# A command runs from the binary's name to the first pipe, ';', '&&',
# closing backtick or '#' comment; its flag tokens are matched as above.
lines=0
for main in cmd/*/main.go; do
    bin=$(basename "$(dirname "$main")")
    own=" $(grep -hoE "$flagdef" "$main" | sed -E 's/.*\("([^"]+)".*/\1/' | tr '\n' ' ') $gotest "
    out=$(awk -v bin="$bin" -v own="$own" '
        match($0, "cmd/" bin "([^a-z0-9-]|$)") || match($0, "(^[[:space:]]*|`)" bin " -") {
            lines++
            cmd = substr($0, RSTART + RLENGTH - 1)
            for (i = 1; i <= 4; i++) {
                d = substr("|;`#", i, 1)
                if (j = index(cmd, d)) cmd = substr(cmd, 1, j - 1)
            }
            if (j = index(cmd, "&&")) cmd = substr(cmd, 1, j - 1)
            while (match(cmd, /(^|[[:space:]"\047(\/[])-[a-z][a-z0-9-]+/)) {
                tok = substr(cmd, RSTART, RLENGTH)
                sub(/^[^-]*-/, "", tok)
                if (index(own, " " tok " ") == 0)
                    printf "check_docs: FAIL — %s:%d: %s has no -%s flag\n", FILENAME, FNR, bin, tok
                cmd = substr(cmd, RSTART + RLENGTH)
            }
        }
        END { print lines + 0 }' $docs)
    if [ -n "$(echo "$out" | sed '$d')" ]; then
        echo "$out" | sed '$d' >&2
        fail=1
    fi
    lines=$((lines + $(echo "$out" | tail -n 1)))
done
echo "check_docs: $lines command lines checked against their own binary's flags"

# --- every experiment family has a docs section ----------------------

families=$(awk '/^var Families = /,/^}/' internal/exp/registry.go |
    grep -oE '^[[:space:]]*\{"[a-z0-9-]+"' | sed -E 's/.*"([^"]+)"/\1/' || true)
if [ -z "$families" ]; then
    echo "check_docs: found no Families entries in internal/exp/registry.go — extraction broken?" >&2
    exit 1
fi

for fam in $families; do
    if ! grep -qE "^## $fam( |$)" docs/experiments.md; then
        echo "check_docs: FAIL — experiment family \"$fam\" has no \"## $fam\" section in docs/experiments.md" >&2
        fail=1
    fi
done
n=$(echo "$families" | wc -l)
echo "check_docs: $n experiment families checked against docs/experiments.md"

# --- every service route is documented -------------------------------

routes=$(grep -oE 'mux\.HandleFunc\("[A-Z]+ [^"]+"' internal/svc/server.go |
    sed -E 's/.*"([^"]+)"?/\1/' | sort -u || true)
if [ -z "$routes" ]; then
    echo "check_docs: found no mux.HandleFunc routes in internal/svc/server.go — extraction broken?" >&2
    exit 1
fi

while IFS= read -r route; do
    if ! grep -qF -- "$route" docs/service.md; then
        echo "check_docs: FAIL — route \"$route\" (internal/svc/server.go) is not mentioned in docs/service.md" >&2
        fail=1
    fi
done <<EOF
$routes
EOF
n=$(echo "$routes" | wc -l)
echo "check_docs: $n service routes checked against docs/service.md"

# --- the cross-kind table is the code's --------------------------------

code=$(sed -nE 's/^[[:space:]]*\{Name: "([^"]+)", Elastic: (true|false), Fluid: (true|false)\},$/\1 \2 \3/p' \
    internal/crosstraffic/kinds.go | sed 's/true/yes/g; s/false/no/g')
if [ "$(echo "$code" | grep -c .)" -ne "$(grep -c '{Name: "' internal/crosstraffic/kinds.go)" ]; then
    echo "check_docs: a Kinds row in internal/crosstraffic/kinds.go is not on one line in field order — extraction broken?" >&2
    exit 1
fi
# Table rows are | `kind` | what it starts | elastic | fluid model |.
doc=$(awk -F ' *[|] *' '/^## Cross-traffic kinds$/ { on = 1; next } /^## / { on = 0 }
    on && /^\| `/ { gsub(/`/, "", $2); print $2, $4, $5 }' docs/experiments.md)
if [ "$code" != "$doc" ]; then
    echo "check_docs: FAIL — docs/experiments.md \"## Cross-traffic kinds\" differs from crosstraffic.Kinds (kind, elastic, fluid; < code, > docs):" >&2
    diff <(echo "$code") <(echo "$doc") >&2 || true
    fail=1
fi
n=$(echo "$code" | wc -l)
echo "check_docs: $n cross-traffic kinds checked against docs/experiments.md"

[ "$fail" -eq 0 ] && echo "check_docs: OK"
exit "$fail"
