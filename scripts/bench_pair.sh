#!/bin/sh
# bench_pair.sh — paired timing of the working tree against a parent
# revision on one or more workloads of the end-to-end benchmark
# (./benchmark). Builds the benchmark once from PARENT (an export of that
# revision in a temporary directory) and once from the working tree, then
# per workload runs N pairs of untraced runs, alternating which side goes
# first so host drift lands on both, and prints the benchmark's own
# -compare table (medians, spread, the BENCHMARK.json bounds' verdicts)
# and, per end-to-end metric, how many of the N pairs the working tree
# won.
#
#   make bench-pair PARENT=<rev> WORKLOAD=<name>[,<name>...] N=<pairs> [SEED=1] [OUT=.bench-pair]
#
# Each run's result file and its one-line result JSON (the last line the
# benchmark prints) are kept under OUT/<workload>-seed<seed>/, replacing
# that directory's previous contents; an absolute OUT is used as given, a
# relative one is taken from the repo root. Exits non-zero if a run failed or
# -compare found a regression on any workload.
set -eu

parent="${PARENT:?set PARENT=<rev>}"
workloads="$(echo "${WORKLOAD:?set WORKLOAD=<name>[,<name>...] (BENCHMARK.json's workloads)}" | tr ',' ' ')"
n="${N:-10}"
seed="${SEED:-1}"

root="$(git rev-parse --show-toplevel)"
cd "$root"
rev="$(git rev-parse --verify "$parent^{commit}")"
for workload in $workloads; do
    grep -q "\"name\": \"$workload\"" BENCHMARK.json || {
        echo "unknown workload $workload: BENCHMARK.json lists" \
            "$(sed -n '/"workloads"/,/]/s/.*"name": "\(.*\)".*/\1/p' BENCHMARK.json | tr '\n' ' ')"
        exit 2
    }
done

# An export rather than a worktree: nothing is registered in .git, so an
# interrupted run leaves nothing behind to prune.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

echo "== build: parent $(git rev-parse --short "$rev") and the working tree"
mkdir -p "$tmp/parent" "$tmp/bin"
git archive "$rev" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bin/parent" ./benchmark)
go build -o "$tmp/bin/change" ./benchmark

failed=0 status=0
# run SIDE I: one untraced run of the workload from SIDE's own tree (the
# benchmark finds its module root, and builds stpbcastd, from there).
run() {
    dir="$root"
    [ "$1" = parent ] && dir="$tmp/parent"
    echo "   pair $2: $1"
    if ! (cd "$dir" && "$tmp/bin/$1" -workload "$workload" -trace 0 -seed "$seed" \
        -o "$out/$1-$2.json") >"$out/$1-$2.log" 2>&1; then
        echo "   pair $2: $1 run failed (log: $out/$1-$2.log)"
        failed=$((failed + 1))
    fi
    tail -n 1 "$out/$1-$2.log" >"$out/$1-$2.line"
}

sets() { # the comma-separated result files of one side
    i=1 list=""
    while [ "$i" -le "$n" ]; do
        [ -f "$out/$1-$i.json" ] && list="$list${list:+,}$out/$1-$i.json"
        i=$((i + 1))
    done
    echo "$list"
}

# value METRIC FILE: the metric's value in a one-line result.
value() { sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p" "$2"; }

outdir="${OUT:-.bench-pair}"
case "$outdir" in
/*) ;;
*) outdir="$root/$outdir" ;;
esac
for workload in $workloads; do
    out="$outdir/$workload-seed$seed"
    rm -rf "$out"
    mkdir -p "$out"

    echo "== $n pairs of $workload, seed $seed"
    i=1
    while [ "$i" -le "$n" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$i"; run change "$i"
        else
            run change "$i"; run parent "$i"
        fi
        i=$((i + 1))
    done

    echo "== $workload: compare (A = parent, B = working tree)"
    "$tmp/bin/change" -compare "$(sets parent)" "$(sets change)" || status=$?

    echo "== $workload: pairs won by the working tree, per end-to-end metric"
    awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
         on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
         on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json |
    while read -r metric better; do
        won=0 tied=0 i=1
        while [ "$i" -le "$n" ]; do
            a="$(value "$metric" "$out/parent-$i.line")"
            b="$(value "$metric" "$out/change-$i.line")"
            if [ -n "$a" ] && [ -n "$b" ]; then
                case "$(awk -v a="$a" -v b="$b" -v hi="$better" \
                    'BEGIN { if (a + 0 == b + 0) print "tie"; else if ((b + 0 > a + 0) == (hi == "higher")) print "win" }')" in
                win) won=$((won + 1)) ;;
                tie) tied=$((tied + 1)) ;;
                esac
            fi
            i=$((i + 1))
        done
        printf '   %-16s won %d/%d, tied %d  (%s is better)\n' "$metric" "$won" "$n" "$tied" "$better"
    done
    echo "results: $out"
done

if [ "$failed" -gt 0 ]; then
    echo "$failed run(s) failed"
    exit 1
fi
exit "$status"
