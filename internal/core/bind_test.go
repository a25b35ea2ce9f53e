package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// stepTracer records every rank's sends and receives as the Steps they
// execute, in the rank's own order.
type stepTracer [][]Step

func (tr stepTracer) Trace(e obs.Event) {
	if e.Kind == obs.KindSend || e.Kind == obs.KindRecv {
		tr[e.Rank] = append(tr[e.Rank], Step{int32(e.Iter), int32(e.Rank), int32(e.Peer), e.Kind == obs.KindRecv})
	}
}

// TestStepsMatchExecutedSchedule holds the step stream and the executed
// schedule together: for every registry algorithm that has a stream, on
// square, odd, 1×p and torus machines, the steps Steps hands out for a
// rank are exactly the (level, peer, send|receive) sequence of that rank
// in a traced simulator run of the bound algorithm. What the planner
// prices is therefore what the engines run.
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
		{8, 8, topology.MustTorus3D(4, 4, 4), network.T3DMPI()},
	}
	var streamed []string
	for _, alg := range Registry() {
		for _, m := range machines {
			p := m.rows * m.cols
			for _, d := range []dist.Distribution{dist.Equal(), dist.Cross(), dist.Square()} {
				for _, s := range []int{1, max(p/8, 1), p / 2} {
					spec := makeSpec(t, d, m.rows, m.cols, s)
					want := make([][]Step, p)
					if !Steps(alg, spec, func(st Step) { want[st.Rank] = append(want[st.Rank], st) }) {
						continue
					}
					if !slices.Contains(streamed, alg.Name()) {
						streamed = append(streamed, alg.Name())
					}
					nw, err := network.New(m.topo, topology.IdentityPlacement(p), m.cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, bound := make(stepTracer, p), Bind(alg, spec)
					if _, err := sim.Run(nw, func(pr *sim.Proc) {
						bound.Run(pr, spec, InitialMessageLen(spec, pr.Rank(), 64))
					}, sim.Options{Tracer: got}); err != nil {
						t.Fatal(err)
					}
					for r := range want {
						if !slices.Equal(got[r], want[r]) {
							t.Fatalf("%s on %d×%d %s(%d): rank %d executed %v, the stream says %v",
								alg.Name(), m.rows, m.cols, d.Name(), s, r, got[r], want[r])
						}
					}
				}
			}
		}
	}
	if want := []string{"Br_Lin", "Br_xy_source", "Br_xy_dim", "Br_kport4"}; !slices.Equal(streamed, want) {
		t.Errorf("registry algorithms with a step stream: %v, want %v", streamed, want)
	}
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
			verifyBundles(t, bound.Name()+" (bound, live)", spec, out, 64)
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
			alg.Run(pr, with, InitialMessage(with, pr.Rank(), payloadFor(pr.Rank(), 8)))
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
