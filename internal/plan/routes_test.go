package plan

import (
	"context"
	"maps"
	"math/bits"
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// TestRoutesCoverTracedLiveLinks is the route-extraction soundness gate:
// for every registry algorithm, the link set Routes extracts from a
// simulated replay must be a superset of the directed links a real
// (live-engine) run of the same instance actually sends over, observed
// through its obs event stream. Checked at p=16 and p=32 on two source
// distributions so both the dense and the straggler-heavy schedules are
// exercised.
func TestRoutesCoverTracedLiveLinks(t *testing.T) {
	meshes := [][2]int{{4, 4}, {4, 8}}
	for _, mesh := range meshes {
		m := machine.Paragon(mesh[0], mesh[1])
		p := mesh[0] * mesh[1]
		for _, d := range []dist.Distribution{dist.Equal(), dist.Cross()} {
			spec := testSpec(t, m, d, p/2)
			for _, alg := range core.Registry() {
				routes, err := Routes(m, alg, spec, 32)
				if err != nil {
					t.Fatalf("%s p=%d %s: %v", alg.Name(), p, d.Name(), err)
				}
				planned := make(map[[2]int]bool, len(routes))
				for _, l := range routes {
					planned[l] = true
				}
				rec := trace.NewRecorder(0)
				payload := make([]byte, 32)
				_, err = liveRun(p, live.Options{Tracer: rec}, func(pr *live.Proc) {
					mine := core.InitialMessage(spec, pr.Rank(), payload)
					alg.Run(pr, spec, mine)
				})
				if err != nil {
					t.Fatalf("%s p=%d %s (live): %v", alg.Name(), p, d.Name(), err)
				}
				for _, e := range rec.Events {
					if e.Kind != obs.KindSend || e.Peer < 0 || e.Peer == e.Rank {
						continue
					}
					if !planned[[2]int{e.Rank, e.Peer}] {
						t.Errorf("%s p=%d %s: run sent %d→%d, not in the %d extracted routes",
							alg.Name(), p, d.Name(), e.Rank, e.Peer, len(routes))
					}
				}
			}
		}
	}
}

// liveRun opens a live machine of p processors, runs fn on it once and
// closes it.
func liveRun(p int, opts live.Options, fn func(*live.Proc)) (*engine.Result, error) {
	m, err := live.NewMachine(p)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Run(opts, fn)
}

// tracedLinks adds the (rank, peer) pair of every send of a simulated run.
func tracedLinks(m *machine.Machine, alg core.Algorithm, spec core.Spec, msgLen int, links linkSet) error {
	_, _, err := m.RunSim(alg, spec, machine.Uniform(msgLen), sim.Options{Tracer: sendTracer(links)})
	return err
}

// sendTracer records the pairs a traced run sends messages over.
type sendTracer linkSet

func (ls sendTracer) Trace(e obs.Event) {
	if e.Kind == obs.KindSend && e.Peer >= 0 {
		linkSet(ls).add(e.Rank, e.Peer)
	}
}

// TestRoutesReadAndTracedAgree holds the link set read off a program
// together with what runs: for every registry entry, the pairs read off
// its send operations are exactly the pairs a traced simulator run of the
// instance sends over.
func TestRoutesReadAndTracedAgree(t *testing.T) {
	for _, mesh := range [][2]int{{4, 4}, {4, 8}} {
		m := machine.Paragon(mesh[0], mesh[1])
		for _, coll := range core.Collectives() {
			specs := []core.Spec{{Rows: m.Rows, Cols: m.Cols, Sources: core.AllRanksSources(m.P())}}
			if caps := coll.Caps(); caps.SingleSource {
				specs[0].Sources = []int{m.P() / 3}
			} else if caps.TakesSources {
				specs = []core.Spec{testSpec(t, m, dist.Equal(), m.P()/2), testSpec(t, m, dist.Cross(), m.P()/4)}
			}
			for _, alg := range core.RegistryFor(coll) {
				for _, spec := range specs {
					prog, err := m.Program(alg, spec)
					if err != nil {
						t.Errorf("%s on %s, sources %v: %v", alg.Name(), m.Name, spec.Sources, err)
						continue
					}
					fromProgram, traced := linkSet{}, linkSet{}
					programLinks(prog, fromProgram)
					if err := tracedLinks(m, alg, spec, 32, traced); err != nil {
						t.Fatalf("%s on %s: %v", alg.Name(), m.Name, err)
					}
					if !maps.Equal(fromProgram, traced) {
						t.Errorf("%s on %s, sources %v: %d links read off the program, %d traced", alg.Name(), m.Name, spec.Sources, len(fromProgram), len(traced))
					}
					routes, err := Routes(m, alg, spec, 32)
					if err != nil || len(routes) != len(traced) || !slices.IsSortedFunc(routes, compareLinks) {
						t.Errorf("%s on %s: Routes gives %d links (%v), want the %d sorted", alg.Name(), m.Name, len(routes), err, len(traced))
					}
				}
			}
		}
	}
}

// TestRoutesDriveSparseTCPMachine closes the loop at the transport
// layer: a TCP machine built from exactly the extracted routes runs the
// algorithm without Prepare — and Run never dials — so the plan covered
// every connection the broadcast needed. Any link Routes missed would
// fail the run here, naming the undialed pair.
func TestRoutesDriveSparseTCPMachine(t *testing.T) {
	m := machine.Paragon(4, 4)
	const p = 16
	spec := testSpec(t, m, dist.Cross(), 8)
	for _, alg := range core.Registry() {
		routes, err := Routes(m, alg, spec, 32)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		tm, err := tcp.NewMachine(p, tcp.Options{Links: routes})
		if err != nil {
			t.Fatalf("%s: machine: %v", alg.Name(), err)
		}
		payload := make([]byte, 32)
		_, err = tm.Run(tcp.Options{RecvTimeout: 30 * time.Second}, func(pr *tcp.Proc) {
			mine := core.InitialMessage(spec, pr.Rank(), payload)
			alg.Run(pr, spec, mine)
		})
		if err != nil {
			tm.Close()
			t.Fatalf("%s (tcp sparse): %v", alg.Name(), err)
		}
		// The same program read for its receives as well finds nothing
		// missing either: the op→peer rule is the one Routes used.
		prog, err := m.Program(alg, spec)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if err := tm.Prepare(context.Background(), prog); err != nil || tm.LazyDials() != 0 {
			t.Errorf("%s: Prepare dialed %d pairs the routes lacked (%v)", alg.Name(), tm.LazyDials(), err)
		}
		full := p * (p - 1) / 2
		if tm.PlannedPairs() >= full {
			t.Errorf("%s: %d planned pairs, not sparser than the full mesh (%d)",
				alg.Name(), tm.PlannedPairs(), full)
		}
		tm.Close()
	}
}

// TestSparseMeshScalesToP256 is the sparse mesh's scaling bar, swept over
// the Paragon shapes p = 16 … 256 on Br_Lin E(4) routes: the machine
// opens at most its planned pairs, which are at most the p/2·log2 p
// pairs Br_Lin's halving levels can touch (ranks of one process meet
// in memory, so the barrier adds none), and a real-byte broadcast
// completes at every size, p=256 included, where a full mesh would need
// 32 640 connections. The full mesh it replaces opens all p(p−1)/2 = 120
// pairs at p=16.
func TestSparseMeshScalesToP256(t *testing.T) {
	full, err := tcp.NewMachine(16, tcp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := full.ConnsOpened(); got != 120 {
		t.Errorf("p=16 full mesh opened %d connections, want 120", got)
	}
	full.Close()

	const s, msgLen = 4, 512
	for _, mesh := range [][2]int{{4, 4}, {4, 8}, {8, 8}, {8, 16}, {16, 16}} {
		m := machine.Paragon(mesh[0], mesh[1])
		p := m.P()
		spec := testSpec(t, m, dist.Equal(), s)
		alg := core.BrLin()
		routes, err := Routes(m, alg, spec, msgLen)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := tcp.NewMachine(p, tcp.Options{Links: routes})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		pairs, conns := tm.PlannedPairs(), tm.ConnsOpened()
		if conns > pairs {
			t.Errorf("p=%d: %d connections opened for %d planned pairs", p, conns, pairs)
		}
		if schedule := p / 2 * bits.Len(uint(p)-1); pairs > schedule {
			t.Errorf("p=%d: %d planned pairs, more than the %d Br_Lin's schedule can use", p, pairs, schedule)
		}
		bound := core.Bind(alg, spec)
		out := make([]comm.Message, p)
		_, err = tm.Run(tcp.Options{RecvTimeout: time.Minute}, func(pr *tcp.Proc) {
			mine := core.InitialMessage(spec, pr.Rank(), core.Broadcast.Payload(p, pr.Rank(), msgLen))
			out[pr.Rank()] = bound.Run(pr, spec, mine)
		})
		tm.Close()
		if err != nil {
			t.Fatalf("p=%d: sparse broadcast: %v", p, err)
		}
		for rank, msg := range out {
			if err := core.Broadcast.Check(spec, func(int) int { return msgLen }, rank, msg); err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
		}
	}
}
