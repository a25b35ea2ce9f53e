package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// eventLog is a tracer that records the global event sequence of one run,
// or — once replaying is set — holds a second run against it: the run
// must emit the recorded events, each equal in every field, in the
// recorded order.
type eventLog struct {
	events    []obs.Event
	replaying bool
	next      int
	diff      string // the first difference the second run showed
}

func (l *eventLog) Trace(e obs.Event) {
	switch {
	case !l.replaying:
		l.events = append(l.events, e)
	case l.diff != "":
	case l.next == len(l.events):
		l.diff = fmt.Sprintf("event %d: the replay goes on with %+v after the goroutine run ended", l.next, e)
	case l.events[l.next] != e:
		l.diff = fmt.Sprintf("event %d: the replay emits %+v, the goroutine run emitted %+v", l.next, e, l.events[l.next])
	default:
		l.next++
	}
}

// steps returns rank by rank the sends and receives of the recorded run
// as the Steps they execute.
func (l *eventLog) steps(p int) [][]Step {
	out := make([][]Step, p)
	for _, e := range l.events {
		if e.Kind == obs.KindSend || e.Kind == obs.KindRecv {
			out[e.Rank] = append(out[e.Rank], Step{int32(e.Iter), int32(e.Rank), int32(e.Peer), e.Kind == obs.KindRecv})
		}
	}
	return out
}

// TestStepsMatchExecutedSchedule holds what is read of a schedule and what
// is executed of it together, for every registry entry, on square, odd,
// 1×p, large and torus machines.
//
// Program against its execution: Bind compiles the entry into a program; the
// simulator replays it (sim.Replay) and, as the reference, runs the bound
// algorithm rank by rank as goroutines (sim.Run), each executing its part
// of the program the way the real-byte engines do. The two must agree to
// the last field: reflect.DeepEqual results and one global event sequence.
// Every entry must have a program, and the entries are listed by name, so
// none is skipped unnoticed.
//
// Step stream against execution: for the sectioning broadcasts the steps
// Steps hands out for a rank are exactly the (level, peer, send|receive)
// sequence of that rank in the run, so what the planner prices is what the
// engines run.
func TestStepsMatchExecutedSchedule(t *testing.T) {
	machines := []struct {
		rows, cols int
		topo       topology.Topology
		cfg        network.Config
	}{
		{4, 4, topology.MustMesh2D(4, 4), network.ParagonNX()},
		{7, 9, topology.MustMesh2D(7, 9), network.ParagonNX()},
		{1, 13, topology.MustMesh2D(1, 13), network.ParagonNX()},
		{10, 10, topology.MustMesh2D(10, 10), network.ParagonNX()},
		{16, 16, topology.MustMesh2D(16, 16), network.ParagonNX()},
		{8, 8, topology.MustTorus3D(4, 4, 4), network.T3DMPI()},
	}
	var programmed, streamed []string
	var log eventLog
	for _, m := range machines {
		p := m.rows * m.cols
		if raceEnabled && p > 100 {
			continue
		}
		nw, err := network.New(m.topo, topology.IdentityPlacement(p), m.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, coll := range Collectives() {
			for _, spec := range specsFor(t, coll, m.rows, m.cols) {
				for _, alg := range RegistryFor(coll) {
					bound := Bind(alg, spec)
					prog := ProgramOf(bound)
					if prog == nil {
						t.Fatalf("%s on %d×%d %v: no program", alg.Name(), m.rows, m.cols, spec.Sources)
					}
					if !slices.Contains(programmed, alg.Name()) {
						programmed = append(programmed, alg.Name())
					}
					for _, msgLen := range []int{64, 4096} {
						label := fmt.Sprintf("%s on %d×%d %v L=%d", alg.Name(), m.rows, m.cols, spec.Sources, msgLen)
						log = eventLog{events: log.events[:0]}
						want, err := sim.Run(nw, func(pr *sim.Proc) {
							bound.Run(pr, spec, InitialLenFor(coll, spec, pr.Rank(), msgLen))
						}, sim.Options{Tracer: &log})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						log.replaying = true
						got, err := sim.Replay(nw, prog, func(rank int) (int, int) {
							return InitialLen(coll, spec, rank, msgLen)
						}, sim.Options{Tracer: &log})
						if err != nil {
							t.Fatalf("%s: replay: %v", label, err)
						}
						if log.diff == "" && log.next < len(log.events) {
							log.diff = fmt.Sprintf("the replay ends after %d of %d events", log.next, len(log.events))
						}
						if log.diff != "" {
							t.Fatalf("%s: %s", label, log.diff)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: the replay's result differs from the goroutine run's:\n got %+v\nwant %+v", label, got, want)
						}
					}
					want := make([][]Step, p)
					if !Steps(alg, spec, func(st Step) { want[st.Rank] = append(want[st.Rank], st) }) {
						continue
					}
					if !slices.Contains(streamed, alg.Name()) {
						streamed = append(streamed, alg.Name())
					}
					for r, got := range log.steps(p) {
						if !slices.Equal(got, want[r]) {
							t.Fatalf("%s on %d×%d %v: rank %d executed %v, the stream says %v",
								alg.Name(), m.rows, m.cols, spec.Sources, r, got, want[r])
						}
					}
				}
			}
		}
	}
	if want := []string{"2-Step", "PersAlltoAll", "Br_Lin", "Br_xy_source", "Br_xy_dim", "Repos_Lin", "Repos_xy_source", "Repos_xy_dim",
		"Part_Lin", "Part_xy_source", "Part_xy_dim", "Ring_AllGather", "RD_AllGather", "Indep_1toP", "Br_kport4",
		"Bcast_Circulant", "Red_Tree", "AllRed_RecDouble", "AllRed_RedBcast", "Scatter_Binomial", "Scatter_Direct",
		"Ag_Ring", "Ag_RecDouble", "A2A_Pairwise", "A2A_JungSakho"}; !slices.Equal(programmed, want) {
		t.Errorf("registry algorithms with a program: %v, want %v", programmed, want)
	}
	if want := []string{"Br_Lin", "Br_xy_source", "Br_xy_dim", "Br_kport4"}; !slices.Equal(streamed, want) {
		t.Errorf("registry algorithms with a step stream: %v, want %v", streamed, want)
	}
	// Values built outside the registry compile too.
	spec := makeSpec(t, dist.Cross(), 4, 4, 6)
	for _, alg := range []Algorithm{BrDims([]int{2, 2, 4}, []int{2, 0, 1}), ReposTo(BrLin(), []int{0, 3, 5, 6, 9, 15}),
		ReposAdaptive(BrXYDim(), 0.1), ReposAdaptive(BrXYDim(), 1),
		WithDiscovery(BrLin()), ReposTo(WithDiscovery(BrLin()), []int{0, 3, 5, 6, 9, 15})} {
		if ProgramOf(Bind(alg, spec)) == nil {
			t.Errorf("%s has no program", alg.Name())
		}
	}
}

// specsFor lists the instances of a collective the schedule tests run on
// an r×c machine: {E, Cr, Sq} × s ∈ {1, p/8, p/2} where the collective
// takes sources (one source where it takes one), every rank otherwise.
func specsFor(t *testing.T, coll Collective, r, c int) []Spec {
	p := r * c
	caps := coll.Caps()
	if !caps.TakesSources {
		return []Spec{{Rows: r, Cols: c, Sources: AllRanksSources(p), Indexing: topology.SnakeRowMajor}}
	}
	svals := []int{1, max(p/8, 1), p / 2}
	if caps.SingleSource {
		svals = svals[:1]
	}
	var specs []Spec
	for _, d := range []dist.Distribution{dist.Equal(), dist.Cross(), dist.Square()} {
		for i, s := range svals {
			if i == 0 || s != svals[i-1] {
				specs = append(specs, makeSpec(t, d, r, c, s))
			}
		}
	}
	return specs
}

// TestBoundSharedByConcurrentRanks runs bound algorithms on the live
// engine, where the p ranks really execute at once: the compiled
// schedule, the reposition targets and the partition tables are shared by
// all of them, so under -race this proves they are read-only after Bind.
// Ten rounds per algorithm stand in for -count=10.
func TestBoundSharedByConcurrentRanks(t *testing.T) {
	spec := makeSpec(t, dist.Cross(), 4, 4, 6)
	for _, alg := range []Algorithm{BrXYSource(), ReposLin(), PartXYSource(), BrKPort(4), ReposAdaptive(BrXYDim(), 0.1)} {
		bound := Bind(alg, spec)
		if bound.Name() != alg.Name() || CollectiveOf(bound) != CollectiveOf(alg) {
			t.Fatalf("binding %s changed its identity: %s/%s", alg.Name(), bound.Name(), CollectiveOf(bound))
		}
		for round := 0; round < 10; round++ {
			out := runLive(t, bound, spec, 64)
			checkOut(t, bound.Name()+" (bound, live)", Broadcast, spec, out, 64)
		}
	}
}

// TestBoundRejectsForeignSpecAndSize pins the two guards a bound
// algorithm keeps from the per-processor prelude it replaces: it panics
// on a communicator of the wrong size, and it refuses to run under a
// spec it was not bound to (an equal spec in a different slice is fine).
func TestBoundRejectsForeignSpecAndSize(t *testing.T) {
	spec := makeSpec(t, dist.Equal(), 4, 4, 4)
	run := func(rows, cols int, alg Algorithm, with Spec) error {
		nw, err := network.New(topology.MustMesh2D(rows, cols), topology.IdentityPlacement(rows*cols), network.ParagonNX())
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run(nw, func(pr *sim.Proc) {
			alg.Run(pr, with, InitialMessage(with, pr.Rank(), Broadcast.Payload(with.P(), pr.Rank(), 8)))
		}, sim.Options{})
		return err
	}
	for _, alg := range []Algorithm{BrLin(), BrXYSource(), ReposXYDim(), PartLin()} {
		bound := Bind(alg, spec)
		if err := run(4, 4, bound, spec); err != nil {
			t.Fatalf("%s: bound run failed: %v", alg.Name(), err)
		}
		equal := spec
		equal.Sources = append([]int(nil), spec.Sources...)
		if err := run(4, 4, bound, equal); err != nil {
			t.Errorf("%s: equal spec in another slice rejected: %v", alg.Name(), err)
		}
		foreign := makeSpec(t, dist.Equal(), 4, 4, 5)
		if err := run(4, 4, bound, foreign); err == nil || !strings.Contains(err.Error(), "bound to another spec") {
			t.Errorf("%s: foreign spec: got %v, want a bound-to-another-spec panic", alg.Name(), err)
		}
		if err := run(2, 2, bound, spec); err == nil || !strings.Contains(err.Error(), "does not cover machine of 4") {
			t.Errorf("%s: 2×2 communicator: got %v, want a wrong-size panic", alg.Name(), err)
		}
	}
	// A spec that cannot be bound fails where the prelude failed: on every
	// rank's Run, not in Bind.
	bad := Bind(BrLin(), Spec{Rows: 2, Cols: 2, Sources: []int{9}})
	if err := run(2, 2, bad, Spec{Rows: 2, Cols: 2, Sources: []int{9}}); err == nil || !strings.Contains(err.Error(), "outside machine") {
		t.Errorf("invalid spec: got %v, want the validation error from every rank", err)
	}
}

// TestInitialLenMeasuresInitialLenFor: what a replay is told of a rank's
// initial bundle is what the bundle a goroutine run builds measures, for
// every collective.
func TestInitialLenMeasuresInitialLenFor(t *testing.T) {
	for _, coll := range Collectives() {
		for _, spec := range specsFor(t, coll, 3, 4) {
			for rank := 0; rank < spec.P(); rank++ {
				m := InitialLenFor(coll, spec, rank, 48)
				partLen, parts := InitialLen(coll, spec, rank, 48)
				if parts != len(m.Parts) || partLen*parts != m.Len() {
					t.Fatalf("%s, sources %v, rank %d: InitialLen says %d parts of %d bytes, the bundle has %d bytes in %d",
						coll, spec.Sources, rank, parts, partLen, m.Len(), len(m.Parts))
				}
				for _, pt := range m.Parts {
					if pt.Len() != partLen {
						t.Fatalf("%s, sources %v, rank %d: a part of %d bytes, InitialLen says %d", coll, spec.Sources, rank, pt.Len(), partLen)
					}
				}
			}
		}
	}
}
