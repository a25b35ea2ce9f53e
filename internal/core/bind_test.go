package core

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

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
