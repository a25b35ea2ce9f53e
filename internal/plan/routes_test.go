package plan

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/live"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// sentLinks returns the distinct pairs a traced run sent over, a rank's
// sends to itself excepted, in Routes' order.
func sentLinks(events []obs.Event) [][2]int {
	var links [][2]int
	for _, e := range events {
		if e.Kind == obs.KindSend && e.Peer >= 0 && e.Peer != e.Rank {
			links = append(links, [2]int{e.Rank, e.Peer})
		}
	}
	slices.SortFunc(links, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return slices.Compact(links)
}

// routeCase is one instance the route gates check: an algorithm of a
// collective on a spec, with the Routes it extracts at 32-byte messages.
type routeCase struct {
	m      *machine.Machine
	coll   core.Collective
	alg    core.Algorithm
	spec   core.Spec
	name   string
	routes [][2]int
}

// eachRouteCase calls fn on every registry entry at p=16 and p=32; the
// broadcasts on E(p/2), Cross(p/2) and Cross(p/4), so both the dense and
// the straggler-heavy schedules are exercised.
func eachRouteCase(t *testing.T, fn func(c routeCase)) {
	for _, mesh := range [][2]int{{4, 4}, {4, 8}} {
		m := machine.Paragon(mesh[0], mesh[1])
		p := m.P()
		for _, coll := range core.Collectives() {
			specs := []core.Spec{{Rows: m.Rows, Cols: m.Cols, Sources: core.AllRanksSources(p)}}
			if caps := coll.Caps(); caps.SingleSource {
				specs[0].Sources = []int{p / 3}
			} else if caps.TakesSources {
				specs = []core.Spec{testSpec(t, m, dist.Equal(), p/2), testSpec(t, m, dist.Cross(), p/2), testSpec(t, m, dist.Cross(), p/4)}
			}
			for _, alg := range core.RegistryFor(coll) {
				for _, spec := range specs {
					name := fmt.Sprintf("%s on %s, sources %v", alg.Name(), m.Name, spec.Sources)
					routes, err := Routes(m, alg, spec, 32)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					fn(routeCase{m: m, coll: coll, alg: alg, spec: spec, name: name, routes: routes})
				}
			}
		}
	}
}

// TestRoutesReadAndTracedAgree holds the link set read off a program
// together with what runs: for every registry entry, the pairs Routes
// reads off its program are exactly the pairs a traced simulator run of
// the instance sends over.
func TestRoutesReadAndTracedAgree(t *testing.T) {
	eachRouteCase(t, func(c routeCase) {
		simmed := trace.NewRecorder(0)
		if _, _, err := c.m.RunSim(c.alg, c.spec, machine.Uniform(32), sim.Options{Tracer: simmed}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if traced := sentLinks(simmed.Events); !slices.Equal(c.routes, traced) {
			t.Errorf("%s: %d routes read off the program, %d links the simulator sent over", c.name, len(c.routes), len(traced))
		}
	})
}

// TestRoutesCoverTracedLiveLinks is the route-extraction soundness gate:
// for every registry entry, the pairs Routes reads off its program are
// exactly those a real-byte (live-engine) run of the same instance sends
// over, observed through its obs event stream.
func TestRoutesCoverTracedLiveLinks(t *testing.T) {
	machines := map[int]*live.Machine{}
	defer func() {
		for _, lm := range machines {
			lm.Close()
		}
	}()
	eachRouteCase(t, func(c routeCase) {
		p := c.m.P()
		lm := machines[p]
		if lm == nil {
			var err error
			if lm, err = live.NewMachine(p); err != nil {
				t.Fatal(err)
			}
			machines[p] = lm
		}
		ran := trace.NewRecorder(0)
		if _, err := lm.Run(live.Options{Tracer: ran}, func(pr *live.Proc) {
			mine := core.InitialFor(c.coll, c.spec, pr.Rank(), func(r int) []byte { return c.coll.Payload(p, r, 32) })
			c.alg.Run(pr, c.spec, mine)
		}); err != nil {
			t.Fatalf("%s (live): %v", c.name, err)
		}
		if traced := sentLinks(ran.Events); !slices.Equal(c.routes, traced) {
			t.Errorf("%s: %d routes read off the program, %d links the live run sent over", c.name, len(c.routes), len(traced))
		}
	})
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
			mine := core.InitialFor(core.Broadcast, spec, pr.Rank(), func(int) []byte { return payload })
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
			mine := core.InitialFor(core.Broadcast, spec, pr.Rank(), func(r int) []byte { return core.Broadcast.Payload(p, r, msgLen) })
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
