package stpbcast_test

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	stpbcast "repro"
)

// sessionCfg is the workload shared by the session tests: small enough
// to run hundreds of times, real enough to exercise combining.
var sessionCfg = stpbcast.Config{
	Algorithm:    "Br_Lin",
	Distribution: "E",
	Sources:      4,
	MsgBytes:     64,
}

// checkResult fails the test unless every rank of res holds exactly
// what cfg's collective must leave with the default payload.
func checkResult(t *testing.T, m *stpbcast.Machine, cfg stpbcast.Config, res *stpbcast.Result) {
	t.Helper()
	if err := stpbcast.CheckResult(m, cfg, res); err != nil {
		t.Fatal(err)
	}
}

// TestSessionIsolationRealEngines runs two broadcasts back to back over
// one warm session — the first under an aggressive duplicate-fault plan
// with its own tracer, the second clean with a fresh tracer — and
// asserts nothing leaks between them: no stale frames (bundles exact),
// no fault events on the clean run, no events appended to the first
// run's tracer by the second run.
func TestSessionIsolationRealEngines(t *testing.T) {
	for _, engine := range []stpbcast.Engine{stpbcast.EngineLive, stpbcast.EngineTCP} {
		t.Run(engine.String(), func(t *testing.T) {
			m := stpbcast.NewParagon(4, 4)
			s, err := stpbcast.Open(m, engine, stpbcast.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			chaos := stpbcast.NewTraceRecorder(0)
			plan := &stpbcast.FaultPlan{Seed: 7, Duplicate: 1.0}
			res1, err := s.Run(sessionCfg, stpbcast.RunOptions{
				Faults:      plan,
				Trace:       chaos,
				RecvTimeout: 10 * time.Second,
			})
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			checkResult(t, m, sessionCfg, res1)
			if len(res1.Faults) == 0 {
				t.Fatal("duplicate-everything plan injected nothing")
			}
			if chaos.Count("fault") == 0 {
				t.Fatal("fault events missing from the chaos run's tracer")
			}
			chaosEvents := len(chaos.Events)

			clean := stpbcast.NewTraceRecorder(0)
			res2, err := s.Run(sessionCfg, stpbcast.RunOptions{
				Trace:       clean,
				RecvTimeout: 10 * time.Second,
			})
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			checkResult(t, m, sessionCfg, res2)
			if len(res2.Faults) != 0 {
				t.Fatalf("fault plan leaked into the next run: %d events", len(res2.Faults))
			}
			if n := clean.Count("fault"); n != 0 {
				t.Fatalf("clean run's tracer recorded %d fault events", n)
			}
			if len(clean.Events) == 0 {
				t.Fatal("clean run's tracer recorded nothing")
			}
			if len(chaos.Events) != chaosEvents {
				t.Fatalf("second run appended to the first run's tracer: %d -> %d",
					chaosEvents, len(chaos.Events))
			}

			stats := s.Stats()
			if stats.Runs != 2 || stats.Failures != 0 {
				t.Fatalf("stats = %+v, want 2 runs, 0 failures", stats)
			}
			if stats.Bytes <= 0 {
				t.Fatalf("stats counted no payload bytes: %+v", stats)
			}
		})
	}
}

// TestConcurrentRunsTCP: two goroutines call Run with different configs
// on one warm TCP mesh, so one run queues while the other executes. The
// runs differ in sources and message length; every delivered bundle must
// hold exactly its own run's parts and bytes — epoch tagging on the wire
// keeps back-to-back runs' frames apart.
func TestConcurrentRunsTCP(t *testing.T) {
	m := stpbcast.NewParagon(2, 2)
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfgs := []stpbcast.Config{sessionCfg, {Algorithm: "Br_Lin", SourceRanks: []int{1, 2}, MsgBytes: 96}}
	results := make([]*stpbcast.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.Run(cfg, stpbcast.RunOptions{RecvTimeout: 10 * time.Second})
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkResult(t, m, cfg, results[i])
	}
	if stats := s.Stats(); stats.Runs != 2 || stats.Failures != 0 {
		t.Fatalf("stats = %+v, want 2 runs, 0 failures", stats)
	}
}

// TestCloseFinishesInFlightRun: Close while one Run is in flight and
// another is queued behind it. The in-flight run completes with intact
// bundles; the queued one returns a checked result or the closed-session
// error, and a Run after Close gets that error too.
func TestCloseFinishesInFlightRun(t *testing.T) {
	m := stpbcast.NewParagon(2, 2)
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	payload := func(rank int) []byte {
		once.Do(func() { close(entered) })
		<-release
		return []byte{byte(rank), 7}
	}
	type outcome struct {
		res *stpbcast.Result
		err error
	}
	inFlight, queued := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		res, err := s.Run(sessionCfg, stpbcast.RunOptions{Payload: payload, RecvTimeout: 10 * time.Second})
		inFlight <- outcome{res, err}
	}()
	<-entered
	go func() {
		res, err := s.Run(sessionCfg, stpbcast.RunOptions{RecvTimeout: 10 * time.Second})
		queued <- outcome{res, err}
	}()
	closed := make(chan error, 1)
	go func() {
		_, err := s.Close()
		closed <- err
	}()
	close(release)

	got := <-inFlight
	if got.err != nil {
		t.Fatalf("in-flight run failed across Close: %v", got.err)
	}
	for rank, bundle := range got.res.Bundles {
		if len(bundle) != m.P() {
			t.Fatalf("rank %d holds %d parts, want %d", rank, len(bundle), m.P())
		}
		for origin, data := range bundle {
			if string(data) != string(payload(origin)) {
				t.Fatalf("rank %d: part from %d = %v, want %v", rank, origin, data, payload(origin))
			}
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if q := <-queued; q.err == nil {
		checkResult(t, m, sessionCfg, q.res)
	} else if !strings.Contains(q.err.Error(), "closed session") {
		t.Fatalf("queued run's error %q does not mention the closed session", q.err)
	}
	if _, err := s.Run(sessionCfg, stpbcast.RunOptions{}); err == nil {
		t.Fatal("Run accepted after Close")
	} else if !strings.Contains(err.Error(), "closed session") {
		t.Fatalf("post-Close error %q does not mention the closed session", err)
	}
}

// TestSessionIsolationSim: the simulator has no warm engine state, so a
// session must return results identical across back-to-back runs and
// identical to the one-shot path, with per-run tracers kept apart.
func TestSessionIsolationSim(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	s, err := stpbcast.Open(m, stpbcast.EngineSim, stpbcast.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	recA := stpbcast.NewTraceRecorder(0)
	res1, err := s.Run(sessionCfg, stpbcast.RunOptions{Trace: recA})
	if err != nil {
		t.Fatal(err)
	}
	eventsA := len(recA.Events)
	if eventsA == 0 {
		t.Fatal("first run traced nothing")
	}

	recB := stpbcast.NewTraceRecorder(0)
	res2, err := s.Run(sessionCfg, stpbcast.RunOptions{Trace: recB})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Elapsed != res2.Elapsed || !reflect.DeepEqual(res1.Params, res2.Params) {
		t.Fatalf("simulator runs not deterministic across a session:\n%v %+v\n%v %+v",
			res1.Elapsed, res1.Params, res2.Elapsed, res2.Params)
	}
	if len(recA.Events) != eventsA {
		t.Fatal("second run appended to the first run's tracer")
	}
	if len(recB.Events) != eventsA {
		t.Fatalf("tracers disagree across identical runs: %d vs %d", eventsA, len(recB.Events))
	}

	// A session run matches the one-shot unified path exactly.
	oneShot, err := stpbcast.Run(m, stpbcast.EngineSim, sessionCfg, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.Elapsed != res1.Elapsed || !reflect.DeepEqual(oneShot.Params, res1.Params) {
		t.Fatal("session sim run diverged from one-shot Run")
	}

	// Fault plans are meaningless under the simulator and must be
	// rejected, not ignored.
	if _, err := s.Run(sessionCfg, stpbcast.RunOptions{Faults: &stpbcast.FaultPlan{Drop: 0.5}}); err == nil {
		t.Fatal("simulator accepted a fault plan")
	}
}

// TestSessionKillThenReconnect is the acceptance scenario: an injected
// rank kill aborts a TCP run (tearing connections down), and the very
// next Run over the same session succeeds after a transparent mesh
// rebuild, visible in Stats().Reconnects.
func TestSessionKillThenReconnect(t *testing.T) {
	m := stpbcast.NewParagon(2, 2)
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	_, err = s.Run(sessionCfg, stpbcast.RunOptions{
		Faults:      &stpbcast.FaultPlan{Kills: []stpbcast.FaultKill{{Rank: 1, Op: 2}}},
		RecvTimeout: 2 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "kill") {
		t.Fatalf("killed run misreported: %v", err)
	}

	res, err := s.Run(sessionCfg, stpbcast.RunOptions{RecvTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("run after kill failed: %v", err)
	}
	checkResult(t, m, sessionCfg, res)

	stats, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 2 || stats.Failures != 1 {
		t.Fatalf("stats = %+v, want 2 runs, 1 failure", stats)
	}
	if stats.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", stats.Reconnects)
	}

	// The session is closed: further runs must error, Close stays
	// idempotent and keeps reporting the final stats.
	if _, err := s.Run(sessionCfg, stpbcast.RunOptions{}); err == nil {
		t.Fatal("Run on closed session accepted")
	}
	again, err := s.Close()
	if err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if again != stats {
		t.Fatalf("Close not idempotent: %+v vs %+v", again, stats)
	}
}

// TestSessionManyRunsTCP reuses one small mesh for many broadcasts with
// varying configs — the serving-workload shape the session API exists
// for.
func TestSessionManyRunsTCP(t *testing.T) {
	m := stpbcast.NewParagon(2, 2)
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	algs := []string{"Br_Lin", "Br_xy_source", "Repos_xy_source"}
	for i := 0; i < 12; i++ {
		cfg := stpbcast.Config{
			Algorithm:    algs[i%len(algs)],
			Distribution: "E",
			Sources:      2,
			MsgBytes:     32 * (i + 1),
		}
		res, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, cfg.Algorithm, err)
		}
		checkResult(t, m, cfg, res)
	}
	if st := s.Stats(); st.Runs != 12 || st.Failures != 0 || st.Reconnects != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSparseSessionDialsUnplannedPairs: a p=16 TCP session runs Br_Lin
// E(4) twice, then PersAlltoAll twice, whose schedule uses pairs Br_Lin's
// lacks. Opened on Br_Lin's routes, it dials those pairs at Open; opened
// with nil Links, it dials nothing at Open. Either way each run first
// dials exactly the pairs its schedule uses that the mesh lacks — the
// session then holds the union of its schedules' pairs, 32 at most for
// Br_Lin against the full mesh's 120 — its bundles are correct, a repeat
// run dials nothing more, and nothing reconnects.
func TestSparseSessionDialsUnplannedPairs(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	brLin := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: 256}
	alltoall := brLin
	alltoall.Algorithm = "PersAlltoAll"
	routes := func(cfg stpbcast.Config) [][2]int {
		links, err := stpbcast.RoutesFor(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return links
	}
	pairs := func(links [][2]int) map[[2]int]bool {
		set := make(map[[2]int]bool, len(links))
		for _, l := range links {
			set[[2]int{min(l[0], l[1]), max(l[0], l[1])}] = true
		}
		return set
	}
	if n := len(pairs(routes(brLin))); n > 32 {
		t.Fatalf("Br_Lin E(4) uses %d pairs, want at most 32", n)
	}
	for _, tc := range []struct {
		name  string
		links [][2]int
	}{
		{"Br_Lin routes", routes(brLin)},
		{"nil Links", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{Links: tc.links})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			held := pairs(tc.links)
			if got := stpbcast.SessionConnsOpened(s); got != len(held) {
				t.Fatalf("Open dialed %d pairs, want the plan's %d", got, len(held))
			}
			lazy := 0
			for i, cfg := range []stpbcast.Config{brLin, brLin, alltoall, alltoall} {
				for pr := range pairs(routes(cfg)) {
					if !held[pr] {
						held[pr] = true
						lazy++
					}
				}
				if i == 2 && lazy == stpbcast.SessionLazyDials(s) {
					t.Fatalf("run %d: PersAlltoAll uses no pair the mesh lacks; the test proves nothing", i)
				}
				res, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: 10 * time.Second})
				if err != nil {
					t.Fatalf("run %d (%s): %v", i, cfg.Algorithm, err)
				}
				checkResult(t, m, cfg, res)
				if got := stpbcast.SessionLazyDials(s); got != lazy {
					t.Fatalf("run %d (%s): %d lazy dials, want %d", i, cfg.Algorithm, got, lazy)
				}
				if got := stpbcast.SessionConnsOpened(s); got != len(held) {
					t.Fatalf("run %d (%s): session holds %d pairs, want %d", i, cfg.Algorithm, got, len(held))
				}
			}
			if st := s.Stats(); st.Failures != 0 || st.Reconnects != 0 {
				t.Fatalf("stats = %+v, want no failure and no reconnect", st)
			}
		})
	}
}

// TestConfigValidate table-tests the shared validation entrypoint.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     stpbcast.Config
		wantErr string
	}{
		{"zero value", stpbcast.Config{}, ""},
		{"valid", sessionCfg, ""},
		{"negative bytes", stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: -1}, "negative message length"},
		{"very negative", stpbcast.Config{MsgBytes: -99999}, "negative message length"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want %q", err, tc.wantErr)
			}
		})
	}

	// Every entrypoint rejects the invalid config the same way.
	m := stpbcast.NewParagon(4, 4)
	bad := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: -1}
	if _, err := stpbcast.Plan(m, bad); err == nil || !strings.Contains(err.Error(), "negative message length") {
		t.Fatalf("Plan: %v", err)
	}
	if _, err := stpbcast.Run(m, stpbcast.EngineSim, bad, stpbcast.RunOptions{}); err == nil || !strings.Contains(err.Error(), "negative message length") {
		t.Fatalf("Run: %v", err)
	}
	s, err := stpbcast.Open(m, stpbcast.EngineSim, stpbcast.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(bad, stpbcast.RunOptions{}); err == nil || !strings.Contains(err.Error(), "negative message length") {
		t.Fatalf("Session.Run: %v", err)
	}
	if st := s.Stats(); st.Runs != 0 {
		t.Fatalf("rejected config counted as a run: %+v", st)
	}
}

// TestSessionStatsDuringRun: Stats() is documented as safe to call —
// and non-blocking — while another goroutine is inside Run(). A poller
// hammers Stats() (and the TCP machine's Reconnects()) concurrently
// with a stream of runs; the race detector enforces the safety claim,
// and the monotone run counter checks that snapshots are coherent.
func TestSessionStatsDuringRun(t *testing.T) {
	for _, engine := range []stpbcast.Engine{stpbcast.EngineLive, stpbcast.EngineTCP} {
		t.Run(engine.String(), func(t *testing.T) {
			m := stpbcast.NewParagon(2, 2)
			s, err := stpbcast.Open(m, engine, stpbcast.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			const runs = 15
			cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: 128}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < runs; i++ {
					if _, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: 10 * time.Second}); err != nil {
						t.Errorf("run %d: %v", i, err)
						return
					}
				}
			}()

			last := 0
			for polling := true; polling; {
				select {
				case <-done:
					polling = false
				default:
				}
				st := s.Stats()
				if st.Runs < last {
					t.Fatalf("Stats().Runs went backwards: %d -> %d", last, st.Runs)
				}
				last = st.Runs
				if st.Failures != 0 {
					t.Fatalf("unexpected failures mid-stream: %+v", st)
				}
			}
			if st := s.Stats(); st.Runs != runs {
				t.Fatalf("final Stats().Runs = %d, want %d", st.Runs, runs)
			}
		})
	}
}

// TestSessionStatsExactUnderConcurrentRuns is the accounting
// regression: on a sparse route-planned mesh, 8 goroutines calling Run
// while concurrent Stats() readers poll must still produce exact byte
// totals — each run contributes precisely the deterministic per-run
// payload volume, and Stats never exposes a partially accumulated run
// (Bytes stays a multiple of the per-run total at every observation).
// Run under -race this also proves the per-rank counters stay
// rank-goroutine-local.
func TestSessionStatsExactUnderConcurrentRuns(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)

	// Reference run on a plain session: the deterministic payload byte
	// total one broadcast of sessionCfg moves.
	ref, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(sessionCfg, stpbcast.RunOptions{RecvTimeout: 10 * time.Second}); err != nil {
		ref.Close()
		t.Fatalf("reference run: %v", err)
	}
	refStats, err := ref.Close()
	if err != nil {
		t.Fatal(err)
	}
	perRun := refStats.Bytes
	if perRun <= 0 {
		t.Fatalf("reference run moved no bytes: %+v", refStats)
	}

	links, err := stpbcast.RoutesFor(m, sessionCfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{Links: links})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.Bytes%perRun != 0 {
					t.Errorf("Stats().Bytes = %d mid-run, not a multiple of the per-run total %d", st.Bytes, perRun)
					return
				}
				if st.Failures != 0 {
					t.Errorf("unexpected failures: %+v", st)
					return
				}
			}
		}()
	}

	const runs = 8
	var callers sync.WaitGroup
	for i := 0; i < runs; i++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			res, err := s.Run(sessionCfg, stpbcast.RunOptions{RecvTimeout: 10 * time.Second})
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			if err := stpbcast.CheckResult(m, sessionCfg, res); err != nil {
				t.Errorf("run %d: %v", i, err)
			}
		}()
	}
	callers.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	if st.Runs != runs || st.Failures != 0 {
		t.Fatalf("stats = %+v, want %d runs, 0 failures", st, runs)
	}
	if st.Bytes != int64(runs)*perRun {
		t.Fatalf("Stats().Bytes = %d after concurrent runs, want exactly %d (%d runs × %d)",
			st.Bytes, int64(runs)*perRun, runs, perRun)
	}
}

// TestEngineNames pins the Engine <-> name mapping the CLI relies on.
func TestEngineNames(t *testing.T) {
	for _, e := range []stpbcast.Engine{stpbcast.EngineSim, stpbcast.EngineLive, stpbcast.EngineTCP} {
		got, err := stpbcast.ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := stpbcast.ParseEngine("mpi"); err == nil {
		t.Fatal("unknown engine name accepted")
	}
	if s := stpbcast.Engine(42).String(); !strings.Contains(s, "42") {
		t.Fatalf("out-of-range engine String() = %q", s)
	}
}

// liveCollectiveAllocBudget gates the allocations of one run of each
// collective on a warm p=16 live session at 1 KiB, the six configs of the
// benchmark's session_live_collectives workload: at most 5 % over the
// counts (60, 28, 184, 41, 104, 120), which -race repeats exactly, and
// never above the budget a collective already had. A program's messages
// travel uncopied (comm.SharedSender), so a send in memory costs no
// allocation: a part array or payload copy per message shows up here.
var liveCollectiveAllocBudget = map[string]float64{
	"Br_Lin": 63, "Red_Tree": 29, "AllRed_RecDouble": 193,
	"Scatter_Binomial": 43, "Ag_RecDouble": 109, "A2A_Pairwise": 126,
}

// TestLiveCollectivesAllocationBudget counts what a warm live session
// allocates per run of each collective — the path a schedule takes from
// the facade through the bound program to the engine — and takes the
// least of several counts, so a collection during one of them does not
// fail the gate.
func TestLiveCollectivesAllocationBudget(t *testing.T) {
	const l = 1024
	m := stpbcast.NewParagon(4, 4)
	p := m.P()
	s, err := stpbcast.Open(m, stpbcast.EngineLive, stpbcast.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payloads := make([][]byte, p)
	for r := range payloads {
		payloads[r] = make([]byte, p*l) // a scatter's root and an all-to-all's ranks supply p·L bytes
		for i := range payloads[r] {
			payloads[r][i] = byte(r + i)
		}
	}
	for _, cfg := range []stpbcast.Config{
		{Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: l},
		{Collective: stpbcast.CollectiveReduce, Algorithm: "Red_Tree", Distribution: "E", Sources: 1, MsgBytes: l},
		{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble", MsgBytes: l},
		{Collective: stpbcast.CollectiveScatter, Algorithm: "Scatter_Binomial", Distribution: "E", Sources: 1, MsgBytes: l},
		{Collective: stpbcast.CollectiveAllGather, Algorithm: "Ag_RecDouble", MsgBytes: l},
		{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_Pairwise", MsgBytes: l},
	} {
		n := l
		if cfg.Collective == stpbcast.CollectiveScatter || cfg.Collective == stpbcast.CollectiveAllToAll {
			n = p * l
		}
		opts := stpbcast.RunOptions{Payload: func(rank int) []byte { return payloads[rank][:n] }, RecvTimeout: time.Minute}
		run := func() {
			if _, err := s.Run(cfg, opts); err != nil {
				t.Fatal(err)
			}
		}
		run()
		least := math.Inf(1)
		for range 5 {
			least = min(least, testing.AllocsPerRun(50, run))
		}
		t.Logf("%s: %.0f allocations per run", cfg.Algorithm, least)
		if budget := liveCollectiveAllocBudget[cfg.Algorithm]; least > budget {
			t.Errorf("%s: %.0f allocations per run, budget %.0f", cfg.Algorithm, least, budget)
		}
	}
}

// heapPerRun is testing.AllocsPerRun with the bytes beside the count: the
// heap objects and bytes one call of f allocates, averaged over n calls
// at GOMAXPROCS 1 after one warm-up call.
func heapPerRun(n int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// sessionTCPLargeByteBudget is 5 % over the 15 748 776 bytes a 256 KiB
// run allocates (at most 15 752 685 under the race detector).
const sessionTCPLargeByteBudget = 16_500_000

// TestSessionTCPAllocationBudget counts what a warm p=16 TCP session
// allocates per Br_Lin E(4) run at the benchmark's two message lengths —
// its session_tcp_small and session_tcp_large workloads — and, at 256 KiB,
// the bytes too: there every source's message is received into fresh
// buffers on 15 ranks, so a second copy per part shows up here first. The
// least of several rounds, so a collection during one does not count.
func TestSessionTCPAllocationBudget(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		name          string
		l, n          int     // message length, runs per round
		allocs, bytes float64 // budgets per run; 0 bytes: not gated
	}{
		{"session_tcp_small", 1 << 10, 50, sessionTCPSmallAllocBudget, 0},
		{"session_tcp_large", 256 << 10, 10, sessionTCPLargeAllocBudget, sessionTCPLargeByteBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := make([]byte, tc.l)
			for i := range payload {
				payload[i] = byte(i)
			}
			cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: tc.l}
			opts := stpbcast.RunOptions{Payload: func(int) []byte { return payload }, RecvTimeout: time.Minute}
			run := func() {
				if _, err := s.Run(cfg, opts); err != nil {
					t.Fatal(err)
				}
			}
			allocs, bytes := math.Inf(1), math.Inf(1)
			for range 5 {
				a, b := heapPerRun(tc.n, run)
				allocs, bytes = min(allocs, a), min(bytes, b)
			}
			t.Logf("%.1f allocations, %.0f bytes per run", allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("%.1f allocations per run, budget %.0f", allocs, tc.allocs)
			}
			if tc.bytes > 0 && bytes > tc.bytes {
				t.Errorf("%.0f bytes per run, budget %.0f", bytes, tc.bytes)
			}
		})
	}
}
