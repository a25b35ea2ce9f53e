package faults_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	stpbcast "repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// chaosMachine and chaosCfg are the 3×4 mesh with 5 cross-distributed
// sources every engine's correctness matrix uses, each source sending
// the default payload of 16 bytes.
var (
	chaosMachine = stpbcast.NewParagon(3, 4)
	chaosCfg     = stpbcast.Config{Algorithm: "Br_xy_source", Distribution: "Cr", Sources: 5, MsgBytes: 16}
)

var chaosEngines = []stpbcast.Engine{stpbcast.EngineLive, stpbcast.EngineTCP}

// runChaos runs chaosCfg once on engine under plan, tracing into tr, so
// that a run that fails still shows the faults it injected.
func runChaos(engine stpbcast.Engine, plan faults.Plan, recvTimeout time.Duration, tr *stpbcast.TraceRecorder) (*stpbcast.Result, error) {
	return stpbcast.Run(chaosMachine, engine, chaosCfg, stpbcast.RunOptions{
		Faults:      &plan,
		Trace:       tr,
		RecvTimeout: recvTimeout,
		RunTimeout:  60 * time.Second,
	})
}

// injected returns the fault events tr recorded.
func injected(tr *stpbcast.TraceRecorder) []obs.Event {
	var out []obs.Event
	for _, e := range tr.Events {
		if e.Kind == obs.KindFault {
			out = append(out, e)
		}
	}
	return out
}

// TestChaosGracefulFaultsPreserveResults: under duplicate and delay
// faults — the kinds a real transport absorbs — the run must complete
// with bundles identical to a fault-free run, and the injected event
// schedule must be identical across same-seed runs.
func TestChaosGracefulFaultsPreserveResults(t *testing.T) {
	plan := faults.Plan{Seed: 42, Duplicate: 0.3, DelayProb: 0.3, MaxDelay: 2 * time.Millisecond}
	for _, engine := range chaosEngines {
		t.Run(engine.String(), func(t *testing.T) {
			res1, err := runChaos(engine, plan, 30*time.Second, nil)
			if err != nil {
				t.Fatalf("graceful plan aborted the run: %v", err)
			}
			if err := res1.Check(); err != nil {
				t.Fatal(err)
			}
			if len(res1.Faults) == 0 {
				t.Fatal("plan injected nothing; the test is vacuous")
			}
			res2, err := runChaos(engine, plan, 30*time.Second, nil)
			if err != nil {
				t.Fatalf("replay aborted: %v", err)
			}
			if err := res2.Check(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res1.Bundles, res2.Bundles) {
				t.Fatal("same seed, different bundles")
			}
			if !reflect.DeepEqual(res1.Faults, res2.Faults) {
				t.Fatalf("same seed, different schedules:\nfirst:  %v\nsecond: %v", res1.Faults, res2.Faults)
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
		t.Run(engine.String(), func(t *testing.T) {
			start := time.Now()
			tr := stpbcast.NewTraceRecorder(0)
			_, err := runChaos(engine, plan, 300*time.Millisecond, tr)
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
			for _, e := range injected(tr) {
				if e.Fault == faults.Drop.String() {
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
		t.Run(engine.String(), func(t *testing.T) {
			tr := stpbcast.NewTraceRecorder(0)
			_, err := runChaos(engine, plan, 5*time.Second, tr)
			if err == nil {
				t.Fatal("killed rank did not fail the run")
			}
			if !strings.Contains(err.Error(), "rank 5 killed at operation 2") {
				t.Fatalf("kill diagnostic lost: %v", err)
			}
			if ev := injected(tr); len(ev) != 1 || ev[0].Fault != faults.Kill.String() || ev[0].Rank != 5 {
				t.Fatalf("kill event log: %v", ev)
			}
		})
	}
}

// recording runs its algorithm and keeps what each rank returned, so
// that a test can read the bundles of a run that failed.
type recording struct {
	core.Algorithm
	out []comm.Message
}

func (r recording) Run(c comm.Comm, spec core.Spec, mine comm.Message) comm.Message {
	got := r.Algorithm.Run(c, spec, mine)
	r.out[c.Rank()] = got
	return got
}

// TestChaosCorruptionIsDetectedNotDelivered: a corrupted message must
// abort with a diagnostic naming the link — never reach algorithm code
// as a wrong answer.
func TestChaosCorruptionIsDetectedNotDelivered(t *testing.T) {
	plan := faults.Plan{Seed: 11, Corrupt: 0.2}
	for _, engine := range chaosEngines {
		t.Run(engine.String(), func(t *testing.T) {
			alg := recording{core.BrXYSource(), make([]comm.Message, chaosMachine.P())}
			res, err := stpbcast.Run(chaosMachine, engine, chaosCfg, stpbcast.RunOptions{
				Algorithm:   alg,
				Faults:      &plan,
				RecvTimeout: 5 * time.Second,
				RunTimeout:  60 * time.Second,
			})
			if err == nil {
				// The seed happened to corrupt nothing on the traffic
				// pattern — that would make the test vacuous.
				t.Fatalf("no abort despite corruption plan; events: %v", res.Faults)
			}
			if !strings.Contains(err.Error(), "detected corrupted delivery") {
				t.Fatalf("corruption diagnostic lost: %v", err)
			}
			// No rank may have returned a bundle carrying damaged bytes.
			for rank, m := range alg.out {
				for _, part := range m.Parts {
					if want := core.Broadcast.Payload(len(alg.out), part.Origin, chaosCfg.MsgBytes); part.Data != nil && !bytes.Equal(part.Data, want) {
						t.Fatalf("rank %d holds corrupted payload %x for origin %d", rank, part.Data, part.Origin)
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
		t.Run(engine.String(), func(t *testing.T) {
			// Drop the first message on some link the broadcast uses; the
			// sweep over candidate links stops at the first one that
			// actually carries traffic (events non-empty).
			for _, link := range [][2]int{{0, 1}, {1, 0}, {4, 5}} {
				plan := faults.Plan{Faults: []faults.Fault{{Kind: faults.Drop, Src: link[0], Dst: link[1], Msg: 0}}}
				tr := stpbcast.NewTraceRecorder(0)
				_, err := runChaos(engine, plan, 300*time.Millisecond, tr)
				if len(injected(tr)) == 0 {
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
