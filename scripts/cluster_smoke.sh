#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test of the multi-process cluster
# runtime: build stpworker, run a p=64 sparse Br_Lin broadcast with the
# coordinator spawning 4 worker OS processes, and require that no send
# crossed a link outside the prefetched route plan (zero lazy dials;
# -fail-on-lazy turns that invariant into the exit status). A second
# leg drives the adopt path: the coordinator waits on a fixed control
# port for externally started `stpworker -coord` processes. A third leg
# starts the cluster with no plan: the first run dials its own pairs
# (a non-zero lazy-dial count) and nothing needs a reset.
# Run via `make cluster-smoke`; CI runs the same target.
set -eu

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

echo "== spawn mode: coordinator + 4 worker processes, p=64 sparse"
"$workdir/stpworker" -workers 4 -rows 8 -cols 8 -alg Br_Lin -dist E -s 4 \
    -bytes 1024 -sparse -runs 3 -fail-on-lazy | tee "$workdir/spawn.log"
grep -q "across 4 workers" "$workdir/spawn.log" || {
    echo "coordinator did not report 4 workers"; exit 1; }
grep -q "0 lazy dials" "$workdir/spawn.log" || {
    echo "lazy-dial count missing from summary"; exit 1; }

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

echo "== no plan: each run's pairs are dialed before it starts"
"$workdir/stpworker" -workers 4 -rows 8 -cols 8 -runs 3 | tee "$workdir/noplan.log"
grep -q "0 coordinator resets" "$workdir/noplan.log" || {
    echo "no-plan cluster needed a reset"; exit 1; }
grep -Eq " [1-9][0-9]* lazy dials" "$workdir/noplan.log" || {
    echo "no-plan cluster reported no pre-run dials"; exit 1; }

echo "== cluster smoke OK"
