package faults_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/tcp"
	"repro/internal/topology"
)

// liveRun opens a live machine of p processors, runs fn on it once and
// closes it.
func liveRun(p int, opts live.Options, fn func(*live.Proc)) (*live.Result, error) {
	m, err := live.NewMachine(p)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Run(opts, fn)
}

// tcpRun opens a TCP machine of p processors, runs fn on it once and
// closes it.
func tcpRun(p int, opts tcp.Options, fn func(*tcp.Proc)) (*tcp.Result, error) {
	m, err := tcp.NewMachine(p, opts)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Run(opts, fn)
}

// chaosSpec is the 3×4 mesh with 5 cross-distributed sources every
// engine's correctness matrix uses.
func chaosSpec(t *testing.T) core.Spec {
	t.Helper()
	sources, err := dist.Cross().Sources(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{Rows: 3, Cols: 4, Sources: sources, Indexing: topology.SnakeRowMajor}
}

// runChaos executes one broadcast algorithm on the named engine with
// every rank's comm wrapped by a fresh injector for plan, and returns
// the delivered bundles, the canonical injected-event log, and the run
// error.
func runChaos(t *testing.T, engine string, plan faults.Plan, recvTimeout time.Duration) ([]comm.Message, []faults.Event, error) {
	t.Helper()
	spec := chaosSpec(t)
	alg := core.BrXYSource()
	p := spec.Rows * spec.Cols
	inj := faults.New(plan)
	out := make([]comm.Message, p)
	body := func(c comm.Comm) {
		fc := inj.Wrap(c)
		mine := core.InitialMessage(spec, fc.Rank(), []byte(fmt.Sprintf("chaos-%d", fc.Rank())))
		out[fc.Rank()] = alg.Run(fc, spec, mine)
	}
	var err error
	switch engine {
	case "live":
		_, err = liveRun(p, live.Options{RecvTimeout: recvTimeout, RunTimeout: 60 * time.Second},
			func(pr *live.Proc) { body(pr) })
	case "tcp":
		_, err = tcpRun(p, tcp.Options{RecvTimeout: recvTimeout, RunTimeout: 60 * time.Second},
			func(pr *tcp.Proc) { body(pr) })
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	return out, inj.Events(), err
}

// assertBundles checks that every rank delivered exactly the fault-free
// result: all source origins, with the payload each source injected.
func assertBundles(t *testing.T, out []comm.Message, spec core.Spec) {
	t.Helper()
	for rank, m := range out {
		if !reflect.DeepEqual(m.Origins(), spec.Sources) {
			t.Fatalf("rank %d origins %v, want %v", rank, m.Origins(), spec.Sources)
		}
		for _, part := range m.Parts {
			if want := fmt.Sprintf("chaos-%d", part.Origin); string(part.Data) != want {
				t.Fatalf("rank %d delivered %q for origin %d, want %q", rank, part.Data, part.Origin, want)
			}
		}
	}
}

var chaosEngines = []string{"live", "tcp"}

// TestChaosGracefulFaultsPreserveResults: under duplicate and delay
// faults — the kinds a real transport absorbs — the run must complete
// with bundles identical to a fault-free run, and the injected event
// schedule must be identical across same-seed runs.
func TestChaosGracefulFaultsPreserveResults(t *testing.T) {
	plan := faults.Plan{Seed: 42, Duplicate: 0.3, DelayProb: 0.3, MaxDelay: 2 * time.Millisecond}
	for _, engine := range chaosEngines {
		t.Run(engine, func(t *testing.T) {
			spec := chaosSpec(t)
			out1, ev1, err := runChaos(t, engine, plan, 30*time.Second)
			if err != nil {
				t.Fatalf("graceful plan aborted the run: %v", err)
			}
			assertBundles(t, out1, spec)
			if len(ev1) == 0 {
				t.Fatal("plan injected nothing; the test is vacuous")
			}
			out2, ev2, err := runChaos(t, engine, plan, 30*time.Second)
			if err != nil {
				t.Fatalf("replay aborted: %v", err)
			}
			assertBundles(t, out2, spec)
			if !reflect.DeepEqual(ev1, ev2) {
				t.Fatalf("same seed, different schedules:\nfirst:  %v\nsecond: %v", ev1, ev2)
			}
		})
	}
}

// TestChaosDropConvertsHangIntoDeadlineError: with every message
// dropped, receivers starve; the receive deadline must convert the hang
// into an error naming the blocked rank and peer, within a bound.
func TestChaosDropConvertsHangIntoDeadlineError(t *testing.T) {
	plan := faults.Plan{Seed: 7, Drop: 1.0}
	for _, engine := range chaosEngines {
		t.Run(engine, func(t *testing.T) {
			start := time.Now()
			_, ev, err := runChaos(t, engine, plan, 300*time.Millisecond)
			if err == nil {
				t.Fatal("total message loss did not fail the run")
			}
			for _, want := range []string{"rank", "recv from", "deadline"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("deadline diagnostic %q missing %q", err, want)
				}
			}
			if d := time.Since(start); d > 15*time.Second {
				t.Fatalf("abort took %v; hang not bounded", d)
			}
			dropped := false
			for _, e := range ev {
				if e.Kind == faults.Drop {
					dropped = true
				}
			}
			if !dropped {
				t.Fatal("no drop events recorded")
			}
		})
	}
}

// TestChaosKillAbortsNamingTheRank: a rank killed mid-run must abort
// the machine with the killed rank as the reported root cause, while
// blocked peers unwind.
func TestChaosKillAbortsNamingTheRank(t *testing.T) {
	plan := faults.Plan{Kills: []faults.KillAt{{Rank: 5, Op: 2}}}
	for _, engine := range chaosEngines {
		t.Run(engine, func(t *testing.T) {
			_, ev, err := runChaos(t, engine, plan, 5*time.Second)
			if err == nil {
				t.Fatal("killed rank did not fail the run")
			}
			if !strings.Contains(err.Error(), "rank 5 killed at operation 2") {
				t.Fatalf("kill diagnostic lost: %v", err)
			}
			if len(ev) != 1 || ev[0].Kind != faults.Kill || ev[0].Rank != 5 {
				t.Fatalf("kill event log: %v", ev)
			}
		})
	}
}

// TestChaosCorruptionIsDetectedNotDelivered: a corrupted message must
// abort with a diagnostic naming the link — never reach algorithm code
// as a wrong answer.
func TestChaosCorruptionIsDetectedNotDelivered(t *testing.T) {
	plan := faults.Plan{Seed: 11, Corrupt: 0.2}
	for _, engine := range chaosEngines {
		t.Run(engine, func(t *testing.T) {
			out, ev, err := runChaos(t, engine, plan, 5*time.Second)
			if err == nil {
				// The seed happened to corrupt nothing on the traffic
				// pattern — that would make the test vacuous.
				t.Fatalf("no abort despite corruption plan; events: %v", ev)
			}
			if !strings.Contains(err.Error(), "detected corrupted delivery") {
				t.Fatalf("corruption diagnostic lost: %v", err)
			}
			// No rank may have returned a bundle carrying damaged bytes.
			for rank, m := range out {
				for _, part := range m.Parts {
					if part.Data != nil && string(part.Data) != fmt.Sprintf("chaos-%d", part.Origin) {
						t.Fatalf("rank %d holds corrupted payload %q for origin %d", rank, part.Data, part.Origin)
					}
				}
			}
		})
	}
}

// TestChaosExplicitFaultTargetsOneLink: an explicit drop of one early
// message on one link must starve only that link's receiver, and the
// deadline error must name it.
func TestChaosExplicitFaultTargetsOneLink(t *testing.T) {
	for _, engine := range chaosEngines {
		t.Run(engine, func(t *testing.T) {
			// Drop the first message on some link the broadcast uses; the
			// sweep over candidate links stops at the first one that
			// actually carries traffic (events non-empty).
			for _, link := range [][2]int{{0, 1}, {1, 0}, {4, 5}} {
				plan := faults.Plan{Faults: []faults.Fault{{Kind: faults.Drop, Src: link[0], Dst: link[1], Msg: 0}}}
				_, ev, err := runChaos(t, engine, plan, 300*time.Millisecond)
				if len(ev) == 0 {
					continue // link unused by this algorithm's schedule
				}
				if err == nil {
					t.Fatalf("dropped message on live link %v did not fail the run", link)
				}
				if !strings.Contains(err.Error(), "deadline") {
					t.Fatalf("starved link %v: diagnostic %v", link, err)
				}
				return
			}
			t.Fatal("no candidate link carried traffic; broaden the sweep")
		})
	}
}
