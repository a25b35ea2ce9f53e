#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test of the multi-process cluster
# runtime: build stpworker, run a p=64 sparse Br_Lin broadcast with the
# coordinator spawning 4 worker OS processes, and require that no send
# crossed a link outside the prefetched route plan (zero lazy dials;
# -fail-on-lazy turns that invariant into the exit status). A second
# leg drives the adopt path: the coordinator waits on a fixed control
# port for externally started `stpworker -coord` processes. A third leg
# starts the cluster with no plan: the first run dials its own pairs
# (a non-zero lazy-dial count) and nothing needs a reset; it runs
# Br_xy_source, because every cross-worker pair of Br_Lin is a leader
# pair, which the workers dial at start-up anyway. The spawn and adopt
# legs also require that every socket crosses workers: a worker's own
# ranks exchange through memory.
# A stray argument must be a usage error before any of that.
# Run via `make cluster-smoke`; CI runs the same target.
set -eu

# wire_only LOG LEG: a pair that crosses workers is planned at both of
# its endpoints' workers but dialed once, so with no lazy dials the
# summary shows planned pairs == 2 x conns opened; a pair inside a worker
# that got a socket would break the equality.
wire_only() {
    line="$(grep '^mesh ' "$1")"
    planned="$(echo "$line" | sed -n 's/.*: \([0-9]*\) planned pairs.*/\1/p')"
    opened="$(echo "$line" | sed -n 's/.* \([0-9]*\) conns opened.*/\1/p')"
    if [ -z "$planned" ] || [ -z "$opened" ] || [ "$opened" -eq 0 ] ||
        [ "$planned" -ne $((2 * opened)) ]; then
        echo "$2: ${planned:-?} planned pairs, ${opened:-?} conns opened; want planned = 2 x opened > 0 (only cross-worker pairs get a socket)"
        exit 1
    fi
}

workdir="$(mktemp -d)"
pids=""
cleanup() {
    for pid in $pids; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/stpworker" ./cmd/stpworker

echo "== a stray argument is a usage error: exit 2, named, no cluster started"
status=0
# The flags after a stray argument would be dropped: without the check
# this runs the default 8x8 cluster.
timeout 10 "$workdir/stpworker" extra -rows 16 >"$workdir/stray.log" 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "stpworker extra exited $status, want 2"; cat "$workdir/stray.log"; exit 1; }
grep -q "unexpected arguments \[extra" "$workdir/stray.log" || { echo "stpworker extra did not name the argument"; cat "$workdir/stray.log"; exit 1; }
echo "   stpworker extra: exit 2"

echo "== spawn mode: coordinator + 4 worker processes, p=64 sparse"
"$workdir/stpworker" -workers 4 -rows 8 -cols 8 -alg Br_Lin -dist E -s 4 \
    -bytes 1024 -sparse -runs 3 -fail-on-lazy | tee "$workdir/spawn.log"
grep -q "across 4 workers" "$workdir/spawn.log" || {
    echo "coordinator did not report 4 workers"; exit 1; }
grep -q "0 lazy dials" "$workdir/spawn.log" || {
    echo "lazy-dial count missing from summary"; exit 1; }
wire_only "$workdir/spawn.log" "spawn mode"

echo "== adopt mode: externally started workers dial a fixed control port"
port=$((20000 + $$ % 10000))
"$workdir/stpworker" -workers 2 -adopt -listen "127.0.0.1:$port" \
    -rows 4 -cols 8 -alg Br_Lin -dist E -s 2 -bytes 512 -sparse -runs 1 \
    -fail-on-lazy >"$workdir/adopt.log" 2>&1 &
coord_pid=$!
pids="$coord_pid"
# Give the coordinator a beat to bind before the workers dial in; they
# retry nothing — the control dial either lands or the smoke fails.
sleep 0.5
"$workdir/stpworker" -coord "127.0.0.1:$port" &
pids="$pids $!"
"$workdir/stpworker" -coord "127.0.0.1:$port" &
pids="$pids $!"
wait "$coord_pid" || { echo "adopt-mode coordinator failed:"; cat "$workdir/adopt.log"; exit 1; }
cat "$workdir/adopt.log"
grep -q "0 lazy dials" "$workdir/adopt.log" || {
    echo "adopt-mode lazy-dial count missing"; exit 1; }
wire_only "$workdir/adopt.log" "adopt mode"

echo "== no plan: each run's pairs are dialed before it starts"
"$workdir/stpworker" -workers 4 -rows 8 -cols 8 -alg Br_xy_source -runs 3 | tee "$workdir/noplan.log"
grep -q "0 coordinator resets" "$workdir/noplan.log" || {
    echo "no-plan cluster needed a reset"; exit 1; }
grep -Eq " [1-9][0-9]* lazy dials" "$workdir/noplan.log" || {
    echo "no-plan cluster reported no pre-run dials"; exit 1; }

echo "== cluster smoke OK"
