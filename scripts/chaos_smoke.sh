#!/usr/bin/env bash
# chaos_smoke.sh [REPO_ROOT]
#
# End-to-end crash-safety smoke for nimbus-svc, run by CI's chaos-smoke
# job. Four phases, each against a fresh daemon:
#
#   1. kill -9 mid-job: a daemon with slowed cells is SIGKILLed while a
#      job is running, restarted over the same cache dir, and must
#      replay the journal — the job resumes under its original id and
#      its results match a clean local run (wall-clock normalized). A
#      second restart serves the same raw bytes and appends nothing to
#      the journal.
#   2. hung cells: with every cell frozen by a hang failpoint, the
#      per-cell watchdog reaps them into error rows and the results
#      request completes instead of hanging.
#   3. disk errors: with every cache write failing, the daemon degrades
#      to pass-through — results still correct, disk_errors counted.
#   4. overload: with -max-jobs 1 and a job in flight, a second
#      submission is shed with 429 + Retry-After, and the retrying
#      client (nimbus-bench -remote) rides it out.
#
# Requires: curl, jq, cmp. Uses port 9137 and a scratch dir under
# $TMPDIR; safe to run locally.
set -euo pipefail

root=${1:-$(dirname "$0")/..}
cd "$root"

PORT=9137
BASE="http://127.0.0.1:$PORT"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/nimbus-chaos.XXXXXX")
SVC_PID=""

cleanup() {
    [ -n "$SVC_PID" ] && kill -9 "$SVC_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "chaos_smoke: FAIL — $*" >&2; [ -f "$WORK/svc.log" ] && tail -30 "$WORK/svc.log" >&2; exit 1; }

start_daemon() { # start_daemon <cachedir> [extra flags...]
    local cachedir=$1; shift
    bin/nimbus-svc -listen "127.0.0.1:$PORT" -cachedir "$cachedir" -code-version chaos-v1 "$@" \
        >>"$WORK/svc.log" 2>&1 &
    SVC_PID=$!
    for _ in $(seq 1 100); do
        if curl -sf "$BASE/readyz" >/dev/null; then return 0; fi
        kill -0 "$SVC_PID" 2>/dev/null || fail "daemon exited during startup"
        sleep 0.1
    done
    fail "daemon did not become ready"
}

stop_daemon() {
    [ -n "$SVC_PID" ] && kill "$SVC_PID" 2>/dev/null && wait "$SVC_PID" 2>/dev/null || true
    SVC_PID=""
}

kill9_daemon() {
    kill -9 "$SVC_PID"
    wait "$SVC_PID" 2>/dev/null || true
    SVC_PID=""
}

metric() { curl -s "$BASE/metrics" | jq -r ".$1"; }

echo "chaos_smoke: building binaries"
go build -o bin/ ./cmd/nimbus-svc ./cmd/nimbus-bench

cat > "$WORK/grid.json" <<'EOF'
{
  "base": {"rtt_ms": 20, "buffer_ms": 50, "duration_sec": 5, "seed": 1},
  "schemes": ["nimbus", "cubic"],
  "rates_mbps": [24],
  "link_traces": ["", "cell-ramp"]
}
EOF

echo "chaos_smoke: clean local baseline"
bin/nimbus-bench -grid "$WORK/grid.json" -out "$WORK/local.json" >/dev/null 2>&1
jq 'map(.wall_sec = 0)' "$WORK/local.json" > "$WORK/local.norm.json"

# --- phase 1: kill -9 mid-job, restart, journal replay ----------------

echo "chaos_smoke: phase 1 — kill -9 mid-job, restart, resume"
start_daemon "$WORK/cache1" -fsync -failpoints 'cell-run=sleep:400ms'
job=$(curl -sf -X POST "$BASE/jobs" -H 'Content-Type: application/json' \
    -d "$(jq '{grid: .}' "$WORK/grid.json")" | jq -r .id)
[ -n "$job" ] && [ "$job" != null ] || fail "phase 1: submission failed"
sleep 1 # let some (not all) cells land in the cache before the crash
kill9_daemon
echo "chaos_smoke: phase 1 — daemon killed mid-job $job, restarting"
start_daemon "$WORK/cache1" # no failpoints: the resumed cells run at speed
[ "$(metric journal_replayed)" -ge 1 ] || fail "phase 1: journal_replayed is 0 after restart"
curl -sf "$BASE/jobs/$job/results" > "$WORK/resumed.json" || fail "phase 1: resumed job $job lost"
jq -e 'map(select(.err != null and .err != "")) | length == 0' "$WORK/resumed.json" >/dev/null \
    || fail "phase 1: resumed job has error rows: $(cat "$WORK/resumed.json")"
jq 'map(.wall_sec = 0)' "$WORK/resumed.json" > "$WORK/resumed.norm.json"
cmp "$WORK/local.norm.json" "$WORK/resumed.norm.json" \
    || fail "phase 1: resumed results differ from clean local run"
state=$(curl -sf "$BASE/jobs/$job" | jq -r .state)
[ "$state" = done ] || fail "phase 1: resumed job state is $state, want done"
stop_daemon
# A second restart replays the finished job from the cache: the same raw
# bytes (cached rows keep their wall_sec), and no second done record.
wal_lines() { jq -Rn '[inputs] | length' "$WORK/cache1/journal/wal"; }
lines=$(wal_lines)
start_daemon "$WORK/cache1"
curl -sf "$BASE/jobs/$job/results" > "$WORK/replayed.json" || fail "phase 1: job $job lost on the second restart"
cmp "$WORK/resumed.json" "$WORK/replayed.json" \
    || fail "phase 1: results changed across the second restart"
state=$(curl -sf "$BASE/jobs/$job" | jq -r .state)
[ "$state" = done ] || fail "phase 1: job state after the second restart is $state, want done"
stop_daemon
[ "$(wal_lines)" -eq "$lines" ] \
    || fail "phase 1: the second restart appended to the journal ($lines -> $(wal_lines) lines)"
echo "chaos_smoke: phase 1 OK — job $job survived kill -9 and a second restart, results byte-identical (wall-clock normalized), journal unchanged"

# --- phase 2: hung cells are reaped by the watchdog -------------------

echo "chaos_smoke: phase 2 — watchdog reaps hung cells"
start_daemon "$WORK/cache2" -failpoints 'cell-run=hang:1' -cell-timeout 1s
job=$(curl -sf -X POST "$BASE/jobs" -H 'Content-Type: application/json' \
    -d "$(jq '{grid: ., workers: 8}' "$WORK/grid.json")" | jq -r .id)
curl -sf --max-time 60 "$BASE/jobs/$job/results" > "$WORK/hung.json" \
    || fail "phase 2: results request hung — watchdog did not release waiters"
total=$(jq length "$WORK/hung.json")
reaped=$(jq '[.[] | select(.err | tostring | contains("watchdog"))] | length' "$WORK/hung.json")
[ "$reaped" = "$total" ] || fail "phase 2: $reaped/$total rows are watchdog errors"
[ "$(metric watchdog_kills)" -eq "$total" ] || fail "phase 2: watchdog_kills != $total"
stop_daemon
echo "chaos_smoke: phase 2 OK — $reaped hung cells reaped, waiters released"

# --- phase 3: disk errors degrade to pass-through ---------------------

echo "chaos_smoke: phase 3 — disk-write errors degrade, not fail"
start_daemon "$WORK/cache3" -failpoints 'disk-write=err:1'
bin/nimbus-bench -grid "$WORK/grid.json" -remote "$BASE" -out "$WORK/noDisk.json" >/dev/null 2>&1 \
    || fail "phase 3: remote run failed under disk errors"
jq 'map(.wall_sec = 0)' "$WORK/noDisk.json" > "$WORK/noDisk.norm.json"
cmp "$WORK/local.norm.json" "$WORK/noDisk.norm.json" \
    || fail "phase 3: degraded results differ from clean local run"
[ "$(metric disk_errors)" -ge 1 ] || fail "phase 3: disk_errors not counted"
stop_daemon
echo "chaos_smoke: phase 3 OK — correct results with a broken disk, $(jq length "$WORK/noDisk.json") cells"

# --- phase 4: overload sheds with 429, retrying client rides it out ---

echo "chaos_smoke: phase 4 — overload shedding and client retry"
start_daemon "$WORK/cache4" -max-jobs 1 -failpoints 'cell-run=sleep:300ms'
job=$(curl -sf -X POST "$BASE/jobs" -H 'Content-Type: application/json' \
    -d "$(jq '{grid: ., workers: 1}' "$WORK/grid.json")" | jq -r .id)
code=$(curl -s -o "$WORK/shed.json" -w '%{http_code}' -X POST "$BASE/jobs" \
    -H 'Content-Type: application/json' -d "$(jq '{grid: .}' "$WORK/grid.json")")
[ "$code" = 429 ] || fail "phase 4: second submission got $code, want 429"
retry_after=$(curl -s -D - -o /dev/null -X POST "$BASE/jobs" \
    -H 'Content-Type: application/json' -d "$(jq '{grid: .}' "$WORK/grid.json")" \
    | tr -d '\r' | awk 'tolower($1) == "retry-after:" {print $2}')
[ "$retry_after" = 1 ] || fail "phase 4: Retry-After header is '$retry_after', want 1"
# The self-healing client backs off on the 429s and completes once the
# first job frees capacity.
bin/nimbus-bench -grid "$WORK/grid.json" -remote "$BASE" -out "$WORK/retried.json" >/dev/null 2>&1 \
    || fail "phase 4: retrying client did not ride out the overload"
jq 'map(.wall_sec = 0)' "$WORK/retried.json" > "$WORK/retried.norm.json"
cmp "$WORK/local.norm.json" "$WORK/retried.norm.json" \
    || fail "phase 4: post-overload results differ from clean local run"
[ "$(metric jobs_shed)" -ge 2 ] || fail "phase 4: jobs_shed not counted"
stop_daemon
echo "chaos_smoke: phase 4 OK — shed with 429 + Retry-After, retrying client succeeded"

echo "chaos_smoke: OK — all 4 phases passed"
