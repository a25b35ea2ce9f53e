# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# targets.

GO ?= go

.PHONY: all fmt vet build test race chaos fuzz-seeds loc allocs bench-all bench-pair smoke-p64 trace-smoke daemon-smoke cluster-smoke collectives-shape api report ci

all: ci

# gofmt -l prints offending files; fail if any.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -timeout: a test that hangs fails instead of stalling the run. CI runs
# it besides race: a test that measures allocated bytes skips under the
# race detector, whose own allocations would count
# (TestSectionedBindBytesNearProgram), so only this run checks it.
test:
	$(GO) test -timeout 5m ./...

# Explicit -timeout: the chaos/abort tests promise every injected hang
# becomes an error; a silent-hang regression should fail fast. The run
# lifecycle's packages go three more times: each machine's watchdog
# goroutine reads inbox and barrier state on every tick. So does the
# cluster's: its workers check bundles inside rank bodies while their
# peers still hold the bundles' shared part arrays. So does the daemon's:
# a pool lease holds its key's lock for the whole run, and the same-key
# and eviction tests race requests, sweeps and evictions against it. So
# does the fault injector's: rank goroutines write their own event slices,
# which Events reads only after the engine has joined them. And the run
# stores (comm.Store): a caller's Release marks a run's storage free on
# its goroutine, and tcp's reader pumps, or the session's next run, reuse
# it on theirs — so the facade's Release and kept-result tests go three
# more times too. So do the simulator's, the figures' and the planner's:
# a figure cell or probe releases its program's operation slab
# (comm.Program.Release) on one worker of the pool and the next Compile
# draws it on another. So do the schedules': figure cells and planner
# probes bind sectioning broadcasts concurrently on the pool's workers,
# and each compile gives its step slab and scratch back to one free list
# (core's filings) that the next draws from.
race:
	$(GO) test -race -timeout 5m ./...
	$(GO) test -race -timeout 5m -count=3 ./internal/engine ./internal/comm ./internal/tcp ./internal/cluster ./internal/daemon ./internal/faults ./internal/sim ./internal/bench ./internal/plan ./internal/core
	$(GO) test -race -timeout 5m -count=3 -run 'Release|Kept' .

# Fault-injection, abort-path and result-ownership suites only (fault
# plans refused before a run, fault events on the run's clock included),
# plus the stpbench sweep.
chaos:
	$(GO) test -race -timeout 4m -run 'Chaos|Check|Abort|Deadline|Timeout|Cancel|Conformance|Release|DialRetry|DialPermanent|MidRunConnection|HeldFrame|StaleFrame|ClusterRecovers|ClusterPreDials|BadRunSpec|InvalidRun|TraceFaults' ./internal/faults/ ./internal/engine/ ./internal/tcp/ ./internal/cluster/ .
	$(GO) run ./cmd/stpbench chaos

# Replay every fuzz target's seeds — its f.Add calls and its checked-in
# corpus under testdata/fuzz — in every package, the root's FuzzConfigRun
# included (no fuzzing time budget).
fuzz-seeds:
	$(GO) test -run=Fuzz ./...

# The tracked size of the system: non-test Go lines outside benchmark/,
# in total, for the real-byte engines (core plus both transports), for
# the planner, for the schedule layer (the algorithms and the library
# collectives they are built from, the program they compile to and its
# simulator) and, within it, for the simulator. ROADMAP aim 2 wants them to go down; CI
# prints them, nothing gates.
loc:
	@printf 'non-test Go lines outside benchmark/: '
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1
	@printf 'of which internal/{engine,live,tcp}:  '
	@find internal/engine internal/live internal/tcp -name '*.go' -not -name '*_test.go' | xargs wc -l | tail -1
	@printf 'of which internal/plan:               '
	@find internal/plan -name '*.go' -not -name '*_test.go' | xargs wc -l | tail -1
	@printf 'of which internal/{core,comm,sim}:    '
	@find internal/core internal/comm internal/sim -name '*.go' -not -name '*_test.go' | xargs wc -l | tail -1
	@printf 'of which internal/sim:                '
	@find internal/sim -name '*.go' -not -name '*_test.go' | xargs wc -l | tail -1

# The counted allocation gates' counts: every *AllocationBudget test run
# verbose, and only the lines where each logs what it measured ("N
# allocations per …"). Counts, unlike times, are the same on any host,
# so a change quotes them from here; the gates themselves fail in
# `go test ./...`. CI prints them; the target fails only if a test does.
allocs:
	@out="$$($(GO) test -count=1 -run 'AllocationBudget' -v ./... 2>&1)"; status=$$?; \
		printf '%s\n' "$$out" | grep -E '[0-9] allocations(,| per )' | sed 's/^ *//'; \
		if [ $$status -ne 0 ]; then printf '%s\n' "$$out" | grep -E '^(--- FAIL|FAIL)'; fi; exit $$status

# Sparse-mesh scale smoke: one real-byte broadcast over a route-planned
# p=64 mesh — the quick proof that the sparse TCP path works at a scale
# the full mesh makes painful. (TestSparseBroadcastP128 runs the p=128
# variant in the regular test sweep.)
smoke-p64:
	$(GO) test -run 'TestSparseBroadcastP64Smoke' -count 1 -timeout 5m ./internal/tcp/

# Microbenchmarks across all packages (no JSON, no gate: counts are
# gated in `go test ./...`, time is claimed with bench-pair).
bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Paired end-to-end timing against a parent revision: both sides built
# once, then per workload of a comma-separated WORKLOAD list N interleaved
# pairs, the benchmark's -compare table and the pairs won per metric,
# e.g. `make bench-pair PARENT=HEAD~1 WORKLOAD=plan_cold N=10` or
# `make bench-pair PARENT=HEAD WORKLOAD=session_tcp_small,daemon_tcp_small N=5`.
bench-pair:
	PARENT="$(PARENT)" WORKLOAD="$(WORKLOAD)" N="$(N)" SEED="$(SEED)" sh scripts/bench_pair.sh

# End-to-end trace export: run stpbench trace on all three engines (plus
# a fault-injected live run, and a fault-injected TCP run whose pairs are
# dialed before it starts), writing Chrome and JSONL traces, then
# validate every file against its schema with stpbench trace -validate.
trace-smoke:
	@mkdir -p .trace-smoke
	$(GO) run ./cmd/stpbench trace -engine sim -rows 4 -cols 4 -alg Br_xy_source -dist E -s 4 -bytes 1024 \
		-chrome .trace-smoke/sim.json -json .trace-smoke/sim.jsonl
	$(GO) run ./cmd/stpbench trace -engine live -rows 4 -cols 4 -alg Br_Lin -dist E -s 4 -bytes 1024 \
		-chrome .trace-smoke/live.json -json .trace-smoke/live.jsonl
	$(GO) run ./cmd/stpbench trace -engine tcp -rows 2 -cols 2 -alg Br_Lin -dist E -s 2 -bytes 512 \
		-chrome .trace-smoke/tcp.json -json .trace-smoke/tcp.jsonl
	$(GO) run ./cmd/stpbench trace -engine live -rows 2 -cols 2 -alg Br_Lin -dist E -s 2 -bytes 512 \
		-fault-dup 0.9 -fault-seed 7 -chrome .trace-smoke/faulty.json -json .trace-smoke/faulty.jsonl
	$(GO) run ./cmd/stpbench trace -engine tcp -rows 4 -cols 4 -alg Br_Lin -dist E -s 4 -bytes 1024 \
		-fault-delay 0.3 -fault-seed 7 -chrome .trace-smoke/tcp-faulty.json -json .trace-smoke/tcp-faulty.jsonl
	$(GO) run ./cmd/stpbench trace -validate .trace-smoke/*.json .trace-smoke/*.jsonl
	@rm -rf .trace-smoke

# End-to-end service smoke: start stpbcastd on a random port, run one
# broadcast per engine through stpctl, check /metrics agrees, and drain
# cleanly via /v1/shutdown.
daemon-smoke:
	sh scripts/daemon_smoke.sh

# Multi-process cluster smoke: stpworker spawns 4 worker OS processes,
# runs a p=64 broadcast across them with the route plan prefetched, and
# fails on any lazy dial (a pair dialed before a run because the plan
# lacked it); plus an adopt-mode leg with externally started workers,
# and a no-plan leg whose runs dial their own pairs.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Modern-collectives acceptance gate: the figCollectives shape test
# (newcomer schedules within 10% of the incumbent best per cell, and the
# per-collective planner tracking the cell's true best).
collectives-shape:
	$(GO) test -run 'TestFigCollectivesShape' -count 1 -timeout 10m ./internal/bench/

# The two golden files are checked by tests that `go test ./...` (and so
# `make race`) runs: TestAPISurface holds api/stpbcast.txt to the facade's
# exported API, TestReportIsCurrent holds REPORT.md to the byte. These
# targets rewrite them after an intended change, for review as a diff.
api:
	$(GO) test . -run '^TestAPISurface$$' -count=1 -update

report:
	$(GO) test ./internal/bench -run '^TestReportIsCurrent$$' -count=1 -update

# The workflow (.github/workflows/ci.yml) runs these targets, one step
# each, in this order.
ci: fmt vet build test race chaos fuzz-seeds smoke-p64 trace-smoke daemon-smoke cluster-smoke collectives-shape loc allocs
