#!/bin/sh
# daemon_smoke.sh — end-to-end smoke test of the stpbcastd service:
# build the daemon and client, start the daemon on a random port, run
# one broadcast per engine through stpctl, scrape /metrics, and shut
# down cleanly; before that, bad flag values and a stray argument must be
# usage errors. Run via `make daemon-smoke`; CI runs the same target.
set -eu

workdir="$(mktemp -d)"
daemon_pid=""
cleanup() {
    # The happy path shuts the daemon down via stpctl; only kill it if
    # something failed before the drain.
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/stpbcastd" ./cmd/stpbcastd
go build -o "$workdir/stpctl" ./cmd/stpctl

echo "== a bad flag value is a usage error: exit 2, named, never listening"
for bad in "-max-inflight 0" "-tenant-quota -1" "-max-sessions 0" "-idle-ttl 0" "-recv-timeout 0s"; do
    flagname="${bad%% *}"
    status=0
    # A daemon that accepts the value listens until timeout stops it.
    # shellcheck disable=SC2086 # $bad is a flag and its value
    timeout 10 "$workdir/stpbcastd" -addr 127.0.0.1:0 $bad >"$workdir/bad.log" 2>&1 || status=$?
    [ "$status" -eq 2 ] || { echo "stpbcastd $bad exited $status, want 2"; cat "$workdir/bad.log"; exit 1; }
    grep -q -- "^stpbcastd: $flagname " "$workdir/bad.log" || { echo "stpbcastd $bad did not name $flagname"; cat "$workdir/bad.log"; exit 1; }
    if grep -q 'listening' "$workdir/bad.log"; then echo "stpbcastd $bad listened"; exit 1; fi
    echo "   $bad: exit 2"
done

echo "== a stray argument is a usage error: exit 2, named, no request sent"
status=0
# The flags after a stray argument would be dropped: without the check
# this pings the default address instead of 127.0.0.1:1.
timeout 10 "$workdir/stpctl" ping extra -addr 127.0.0.1:1 >"$workdir/stray.log" 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "stpctl ping extra exited $status, want 2"; cat "$workdir/stray.log"; exit 1; }
grep -q "unexpected arguments \[extra" "$workdir/stray.log" || { echo "stpctl ping extra did not name the argument"; cat "$workdir/stray.log"; exit 1; }
echo "   stpctl ping extra: exit 2"

echo "== start daemon on a random port"
"$workdir/stpbcastd" -addr 127.0.0.1:0 >"$workdir/daemon.log" 2>&1 &
daemon_pid=$!

# The daemon prints "stpbcastd listening on http://ADDR" once bound.
addr=""
for _ in $(seq 1 50); do
    addr="$(sed -n 's|^stpbcastd listening on http://||p' "$workdir/daemon.log")"
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "daemon died:"; cat "$workdir/daemon.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "daemon never reported its address"; cat "$workdir/daemon.log"; exit 1; }
echo "   $addr"

# -addr is a per-subcommand flag; the env default is simpler here and
# exercises that path too.
ctl() { STPBCASTD_ADDR="$addr" "$workdir/stpctl" "$@"; }

echo "== ping"
ctl ping

echo "== one broadcast per engine"
ctl broadcast -engine sim -rows 4 -cols 4 -alg Br_xy_source -s 4 -bytes 4096
ctl broadcast -engine live -rows 3 -cols 3 -alg Br_Lin -s 3 -bytes 256
ctl broadcast -engine tcp -rows 2 -cols 2 -alg Br_Lin -s 2 -bytes 128 -trace

echo "== a non-broadcast collective over a warm session"
ctl broadcast -engine live -rows 3 -cols 3 -collective AllReduce -bytes 256 \
    | grep -q 'collective=AllReduce' || { echo "allreduce run missing its collective echo"; exit 1; }
# -dist on a sourceless collective is a usage error, caught client-side.
if ctl broadcast -engine sim -rows 4 -cols 4 -collective AllToAll -dist E 2>/dev/null; then
    echo "stpctl accepted -dist for AllToAll"; exit 1
fi

echo "== sessions and stats"
ctl sessions
ctl stats

echo "== metrics reflect the four runs"
ctl metrics > "$workdir/metrics.txt"
grep -q '^stpbcastd_requests_total 4$' "$workdir/metrics.txt"
grep -q '^stpbcastd_completed_total 4$' "$workdir/metrics.txt"
grep -q '^stpbcastd_failed_total 0$' "$workdir/metrics.txt"
grep -q '^stpbcastd_sessions 3$' "$workdir/metrics.txt"

echo "== graceful shutdown"
ctl shutdown
# The daemon exits on its own after the drain.
for _ in $(seq 1 50); do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$daemon_pid" 2>/dev/null; then
    echo "daemon still running after shutdown"; cat "$workdir/daemon.log"; exit 1
fi
daemon_pid=""
grep -q 'drained via /v1/shutdown' "$workdir/daemon.log"

echo "daemon smoke: OK"
