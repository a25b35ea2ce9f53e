package stpbcast_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// checkResult fails the test unless res holds a bundle per rank, each
// what its collective must leave with the default payload.
func checkResult(t *testing.T, res *stpbcast.Result) {
	t.Helper()
	if res.Bundles == nil {
		t.Fatal("result holds no bundles")
	}
	if err := res.Check(); err != nil {
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
			checkResult(t, res1)
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
			checkResult(t, res2)
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

// TestResultRelease: a result's bundles are the caller's until Release.
// On every engine a result kept while later runs go on keeps its bytes,
// and releasing twice, or once a later run has started, hands out
// nothing a result still holds. On TCP the next run receives into a
// released result's storage — every part that came over a socket lands
// where the released one's did — and elsewhere Release does nothing.
func TestResultRelease(t *testing.T) {
	for _, engine := range []stpbcast.Engine{stpbcast.EngineSim, stpbcast.EngineLive, stpbcast.EngineTCP} {
		t.Run(engine.String(), func(t *testing.T) {
			m := stpbcast.NewParagon(4, 4)
			s, err := stpbcast.Open(m, engine, stpbcast.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fill := func(i, origin int) []byte { return bytes.Repeat([]byte{byte(16*i + origin)}, sessionCfg.MsgBytes) }
			run := func(i int) *stpbcast.Result {
				t.Helper()
				res, err := s.Run(sessionCfg, stpbcast.RunOptions{
					Payload:     func(rank int) []byte { return fill(i, rank) },
					RecvTimeout: 10 * time.Second,
				})
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				return res
			}
			holds := func(res *stpbcast.Result, i int) {
				t.Helper()
				if engine == stpbcast.EngineSim {
					if res.Bundles != nil {
						t.Fatalf("run %d: a simulated run returned bundles", i)
					}
					return
				}
				for rank, bundle := range res.Bundles {
					if len(bundle) != sessionCfg.Sources {
						t.Fatalf("run %d: rank %d holds %d parts, want %d", i, rank, len(bundle), sessionCfg.Sources)
					}
					for origin, data := range bundle {
						if !bytes.Equal(data, fill(i, origin)) {
							t.Fatalf("run %d: rank %d's part from %d changed after its run", i, rank, origin)
						}
					}
				}
			}
			run(0).Release()
			a := run(1)
			a.Release()
			a.Release()
			b := run(2)
			a.Release() // b started since: too late to matter
			c := run(3)
			b.Release() // c started since: too late
			d := run(4)
			holds(b, 2)
			holds(c, 3)
			holds(d, 4)

			// Where d's bytes live, noted before Release: its maps go back
			// to the session with it, for e to refill.
			type at struct{ rank, origin int }
			dBytes := map[at]*byte{}
			for rank, bundle := range d.Bundles {
				for origin, data := range bundle {
					dBytes[at{rank, origin}] = unsafe.SliceData(data)
				}
			}
			d.Release()
			e := run(5)
			holds(e, 5)
			reused, want := 0, 0
			for rank, bundle := range e.Bundles {
				for origin, data := range bundle {
					if unsafe.SliceData(data) == dBytes[at{rank, origin}] {
						reused++
					}
				}
			}
			if engine == stpbcast.EngineTCP {
				want = m.P()*sessionCfg.Sources - sessionCfg.Sources // all but the sources' own parts
			}
			if reused != want {
				t.Errorf("%d parts received into the released run's storage, want %d", reused, want)
			}
		})
	}
}

// TestKeptResultSurvivesRecycling: a session hands a run's part arrays
// to the next run once it has built the run's bundle maps, and a
// released result's maps and received bytes to the run after it. None
// of that reaches a result the caller keeps: one kept unreleased, after
// a first run released so that the session recycles at all, still holds
// its exact bytes after the next run, of other sources with the same
// shape of frames, was released, and three runs of other
// collectives, lengths and sources, each released in turn, ran over the
// recycled storage — on live, on TCP and on a cluster session, whose
// workers recycle their own storage and check every run's bundles byte
// for byte themselves.
func TestKeptResultSurvivesRecycling(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	kept := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: 64}
	others := []stpbcast.Config{
		{Algorithm: "Br_Lin", Distribution: "Cr", Sources: 4, MsgBytes: 64},
		{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_Pairwise", MsgBytes: 96},
		{Algorithm: "Br_xy_source", Distribution: "Cr", Sources: 8, MsgBytes: 200},
		{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble", MsgBytes: 64},
	}
	for _, tc := range []struct {
		name    string
		engine  stpbcast.Engine
		cluster *stpbcast.ClusterSpec
	}{
		{"live", stpbcast.EngineLive, nil},
		{"tcp", stpbcast.EngineTCP, nil},
		{"cluster", stpbcast.EngineTCP, &stpbcast.ClusterSpec{Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cluster != nil && testing.Short() {
				t.Skip("spawns worker processes")
			}
			s, err := stpbcast.Open(m, tc.engine, stpbcast.SessionOptions{Cluster: tc.cluster})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			run := func(cfg stpbcast.Config) *stpbcast.Result {
				t.Helper()
				res, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: time.Minute})
				if err != nil {
					t.Fatalf("%s: %v", cfg.Algorithm, err)
				}
				if tc.cluster == nil {
					checkResult(t, res)
				}
				return res
			}
			// A first run, released, so that the session recycles from
			// the kept run on.
			run(others[0]).Release()
			res := run(kept)
			for _, cfg := range others {
				run(cfg).Release()
			}
			if tc.cluster != nil {
				if res.Bundles != nil {
					t.Fatal("a cluster run returned bundles")
				}
				return
			}
			checkResult(t, res)
		})
	}
}

// TestResultCheck: Result.Check passes the bundles a run must leave,
// without allocating, and names the rank, the origin and the byte of one
// flipped byte; it still passes a result kept across four later
// released runs of other instances, refuses a RunOptions.Payload run's
// bundles, whose bytes only the caller knows, and has nothing to check
// in a simulated or a cluster run.
func TestResultCheck(t *testing.T) {
	m := stpbcast.NewParagon(2, 2)
	cfg := stpbcast.Config{Algorithm: "Br_Lin", SourceRanks: []int{3, 0}, MsgBytes: 8}
	others := []stpbcast.Config{
		{Algorithm: "Br_Lin", SourceRanks: []int{1, 2}, MsgBytes: 8},
		{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_Pairwise", MsgBytes: 12},
		{Algorithm: "Br_xy_source", Distribution: "E", Sources: 3, MsgBytes: 20},
		{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble", MsgBytes: 8},
	}
	for _, tc := range []struct {
		name    string
		engine  stpbcast.Engine
		cluster *stpbcast.ClusterSpec
	}{
		{"live", stpbcast.EngineLive, nil},
		{"tcp", stpbcast.EngineTCP, nil},
		{"sim", stpbcast.EngineSim, nil},
		{"cluster", stpbcast.EngineTCP, &stpbcast.ClusterSpec{Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cluster != nil && testing.Short() {
				t.Skip("spawns worker processes")
			}
			s, err := stpbcast.Open(m, tc.engine, stpbcast.SessionOptions{Cluster: tc.cluster})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			run := func(cfg stpbcast.Config, opts stpbcast.RunOptions) *stpbcast.Result {
				t.Helper()
				opts.RecvTimeout = time.Minute
				res, err := s.Run(cfg, opts)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Algorithm, err)
				}
				return res
			}
			res := run(cfg, stpbcast.RunOptions{})
			if err := res.Check(); err != nil {
				t.Fatalf("intact bundles: %v", err)
			}
			if tc.engine == stpbcast.EngineSim || tc.cluster != nil {
				if res.Bundles != nil {
					t.Fatal("a simulated or cluster run returned bundles")
				}
				return
			}
			if n := testing.AllocsPerRun(100, func() { res.Check() }); n != 0 {
				t.Errorf("checking intact bundles allocates %v times", n)
			}
			for _, other := range others {
				run(other, stpbcast.RunOptions{}).Release()
			}
			if err := res.Check(); err != nil {
				t.Fatalf("kept across four released runs: %v", err)
			}
			res.Bundles[2][3] = bytes.Clone(res.Bundles[2][3])
			res.Bundles[2][3][5] ^= 0xFF
			err = res.Check()
			if err == nil || !strings.Contains(err.Error(), "rank 2, origin 3: byte 5 is 0xfc, want 0x03") {
				t.Fatalf("flipped byte: %v, want it named by rank, origin and byte", err)
			}
			payload := func(rank int) []byte { return bytes.Repeat([]byte{byte(rank)}, 8) }
			if err := run(cfg, stpbcast.RunOptions{Payload: payload}).Check(); err == nil {
				t.Fatal("a RunOptions.Payload run's bundles checked against the default payload")
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
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkResult(t, results[i])
	}
	if stats := s.Stats(); stats.Runs != 2 || stats.Failures != 0 {
		t.Fatalf("stats = %+v, want 2 runs, 0 failures", stats)
	}
}

// TestReleaseRacesNextRun: two goroutines share a session, each running
// its own config, checking the result and releasing it, so one's Release
// races the other's next Run. A released result's maps go to a later run
// only when no run started since, so every result checks out before its
// release, on live and on TCP.
func TestReleaseRacesNextRun(t *testing.T) {
	m := stpbcast.NewParagon(2, 2)
	cfgs := []stpbcast.Config{sessionCfg, {Algorithm: "Br_Lin", SourceRanks: []int{1, 2}, MsgBytes: 96}}
	for _, engine := range []stpbcast.Engine{stpbcast.EngineLive, stpbcast.EngineTCP} {
		t.Run(engine.String(), func(t *testing.T) {
			s, err := stpbcast.Open(m, engine, stpbcast.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var wg sync.WaitGroup
			for _, cfg := range cfgs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 50 {
						res, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: 10 * time.Second})
						if err == nil {
							err = res.Check()
						}
						if err != nil {
							t.Error(err)
							return
						}
						res.Release()
					}
				}()
			}
			wg.Wait()
		})
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
		checkResult(t, q.res)
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
	checkResult(t, res)

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
		checkResult(t, res)
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
				checkResult(t, res)
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
			if err := res.Check(); err != nil {
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
// benchmark's session_live_collectives workload: 5 % over the counts,
// rounded up (37, 23, 101, 37, 69, 85), which -race repeats exactly. A
// program's messages travel uncopied (comm.SharedSender) and its part
// arrays come from the ranks' run-scoped storage (comm.ArraySource), so
// a send in memory, a grown register or a fold's part costs no
// allocation: a part array or payload copy per message shows up here.
var liveCollectiveAllocBudget = map[string]float64{
	"Br_Lin": 39, "Red_Tree": 25, "AllRed_RecDouble": 107,
	"Scatter_Binomial": 39, "Ag_RecDouble": 73, "A2A_Pairwise": 90,
}

// liveAllocs opens a warm p=16 live session and returns what one run of
// a collective at 1 KiB allocates there under a fault plan (nil: none):
// the least of several counts, so a collection during one of them does
// not fail a gate.
func liveAllocs(t *testing.T) func(cfg stpbcast.Config, faults *stpbcast.FaultPlan) float64 {
	const l = 1024
	m := stpbcast.NewParagon(4, 4)
	p := m.P()
	s, err := stpbcast.Open(m, stpbcast.EngineLive, stpbcast.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	payloads := make([][]byte, p)
	for r := range payloads {
		payloads[r] = make([]byte, p*l) // a scatter's root and an all-to-all's ranks supply p·L bytes
		for i := range payloads[r] {
			payloads[r][i] = byte(r + i)
		}
	}
	return func(cfg stpbcast.Config, faults *stpbcast.FaultPlan) float64 {
		cfg.MsgBytes = l
		n := l
		if cfg.Collective == stpbcast.CollectiveScatter || cfg.Collective == stpbcast.CollectiveAllToAll {
			n = p * l
		}
		opts := stpbcast.RunOptions{Payload: func(rank int) []byte { return payloads[rank][:n] }, RecvTimeout: time.Minute, Faults: faults}
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
		return least
	}
}

// TestLiveCollectivesAllocationBudget counts what a warm live session
// allocates per run of each collective — the path a schedule takes from
// the facade through the bound program to the engine: 37, 23, 101, 37,
// 69 and 85 allocations today.
func TestLiveCollectivesAllocationBudget(t *testing.T) {
	allocs := liveAllocs(t)
	for _, cfg := range []stpbcast.Config{
		{Algorithm: "Br_Lin", Distribution: "E", Sources: 4},
		{Collective: stpbcast.CollectiveReduce, Algorithm: "Red_Tree", Distribution: "E", Sources: 1},
		{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble"},
		{Collective: stpbcast.CollectiveScatter, Algorithm: "Scatter_Binomial", Distribution: "E", Sources: 1},
		{Collective: stpbcast.CollectiveAllGather, Algorithm: "Ag_RecDouble"},
		{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_Pairwise"},
	} {
		least := allocs(cfg, nil)
		t.Logf("%s: %.0f allocations per run", cfg.Algorithm, least)
		if budget := liveCollectiveAllocBudget[cfg.Algorithm]; least > budget {
			t.Errorf("%s: %.0f allocations per run, budget %.0f", cfg.Algorithm, least, budget)
		}
	}
}

// TestFaultsAllocatePerRankNotPerMessage: an active fault plan that fires
// nothing costs a warm p=16 live session a few allocations per rank (the
// wrapper and its link counters), the same for every collective, not
// allocations per message: a faulted program keeps the uncopied send
// path (comm.SharedSender), and no rank logs what it does not inject.
func TestFaultsAllocatePerRankNotPerMessage(t *testing.T) {
	const p = 16
	allocs := liveAllocs(t)
	idle := &stpbcast.FaultPlan{Kills: []stpbcast.FaultKill{{Rank: 0, Op: 1 << 30}}}
	var extras []float64
	for _, cfg := range []stpbcast.Config{
		{Algorithm: "Br_Lin", Distribution: "E", Sources: 4},
		{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble"},
		{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_Pairwise"},
	} {
		clean, faulted := allocs(cfg, nil), allocs(cfg, idle)
		extra := faulted - clean
		t.Logf("%s: %.0f allocations per run, %.0f under the idle plan (%+.0f)", cfg.Algorithm, clean, faulted, extra)
		if extra > 4*p {
			t.Errorf("%s: the idle plan costs %+.0f allocations per run, more than 4 per rank", cfg.Algorithm, extra)
		}
		extras = append(extras, extra)
	}
	if lo, hi := slices.Min(extras), slices.Max(extras); hi-lo > 2 {
		t.Errorf("the idle plan's cost depends on the collective: %+v allocations per run, want them within 2 of each other", extras)
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

// sessionTCPLargeByteBudget is 4.9 % over the 15 735 768 bytes a 256 KiB
// run allocates (at most 15 739 450 under the race detector).
const sessionTCPLargeByteBudget = 16_500_000

// TestSessionTCPAllocationBudget counts what a warm p=16 TCP session
// allocates per Br_Lin E(4) run at the benchmark's two message lengths —
// its session_tcp_small and session_tcp_large workloads — and, at 256 KiB,
// the bytes too: there every source's message is received into fresh
// buffers on 15 ranks, so a second copy per part shows up here first. The
// released row runs the large one but releases each result, so its runs
// receive into the storage of the run before: its byte budget is what is
// left once the received bytes are recycled. The least of several
// rounds, so a collection during one does not count. Today: 72.1
// allocations per run at 1 KiB, 104 at 256 KiB and 7 (1 440 bytes)
// released. The part arrays ranks and frames build come from run-scoped
// storage; what a kept run still allocates is mostly its own: 32 bundle
// maps and 32 received byte slabs, which the caller keeps until Release.
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
		release       bool    // release each result
		allocs, bytes float64 // budgets per run; 0 bytes: not gated
	}{
		{"session_tcp_small", 1 << 10, 50, false, sessionTCPSmallAllocBudget, 0},
		{"session_tcp_large", 256 << 10, 10, false, sessionTCPLargeAllocBudget, sessionTCPLargeByteBudget},
		{"session_tcp_large/released", 256 << 10, 10, true, sessionTCPReleasedAllocBudget, sessionTCPReleasedByteBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := make([]byte, tc.l)
			for i := range payload {
				payload[i] = byte(i)
			}
			cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: tc.l}
			opts := stpbcast.RunOptions{Payload: func(int) []byte { return payload }, RecvTimeout: time.Minute}
			run := func() {
				res, err := s.Run(cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				if tc.release {
					res.Release()
				}
			}
			allocs, bytes := math.Inf(1), math.Inf(1)
			for range 5 {
				a, b := heapPerRun(tc.n, run)
				allocs, bytes = min(allocs, a), min(bytes, b)
			}
			t.Logf("%s: %.1f allocations, %.0f bytes per run", tc.name, allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("%.1f allocations per run, budget %.0f", allocs, tc.allocs)
			}
			if tc.bytes > 0 && bytes > tc.bytes {
				t.Errorf("%.0f bytes per run, budget %.0f", bytes, tc.bytes)
			}
		})
	}
}

// TestInvalidRunCountsNothing: input a run cannot honour — a config that
// does not resolve against the machine, a fault plan on the simulator or
// naming a rank or link the machine lacks — is the caller's error
// (ErrInvalidRun), refused before the run starts: a session's stats do
// not move, and the one-shot Run refuses it too.
func TestInvalidRunCountsNothing(t *testing.T) {
	m := stpbcast.NewParagon(2, 2)
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: 64}
	tooMany := cfg
	tooMany.Sources = 9
	for _, tc := range []struct {
		name   string
		engine stpbcast.Engine
		cfg    stpbcast.Config
		faults *stpbcast.FaultPlan
		want   string
	}{
		{"sources over p", stpbcast.EngineLive, tooMany, nil, "source count 9 outside [1,4]"},
		{"faults on sim", stpbcast.EngineSim, cfg, &stpbcast.FaultPlan{Seed: 1, Drop: 0.5}, "real-byte engine"},
		{"kill of rank 9", stpbcast.EngineLive, cfg, &stpbcast.FaultPlan{Kills: []stpbcast.FaultKill{{Rank: 9}}},
			"FaultPlan.Kills[0]: rank 9 outside the machine's 4 ranks"},
		{"fault on link 7 to 8", stpbcast.EngineTCP, cfg,
			&stpbcast.FaultPlan{Faults: []stpbcast.Fault{{Kind: stpbcast.FaultDrop}, {Kind: stpbcast.FaultDrop, Src: 7, Dst: 8}}},
			"FaultPlan.Faults[1]: link 7→8 outside the machine's 4 ranks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := stpbcast.RunOptions{Faults: tc.faults, RecvTimeout: 10 * time.Second}
			s, err := stpbcast.Open(m, tc.engine, stpbcast.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			before := s.Stats()
			_, err = s.Run(tc.cfg, opts)
			if !errors.Is(err, stpbcast.ErrInvalidRun) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Session.Run error = %v, want ErrInvalidRun mentioning %q", err, tc.want)
			}
			if after := s.Stats(); after != before {
				t.Errorf("stats %+v after a refused run, want %+v", after, before)
			}
			if _, err := stpbcast.Run(m, tc.engine, tc.cfg, opts); !errors.Is(err, stpbcast.ErrInvalidRun) {
				t.Errorf("Run error = %v, want ErrInvalidRun", err)
			}
		})
	}
}
