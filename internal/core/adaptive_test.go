package core

import (
	"testing"

	"repro/internal/dist"
)

// TestReposAdaptiveMarginBoundary pins the decision rule at its boundary:
// the permutation runs only when the efficiency gain strictly exceeds the
// margin, so a margin exactly equal to the gain must skip it.
func TestReposAdaptiveMarginBoundary(t *testing.T) {
	inner := BrXYSource()
	spec := makeSpec(t, dist.Cross(), 8, 8, 12)
	gen := IdealFor(inner, spec.Rows, spec.Cols)
	ideal, err := gen.Sources(spec.Rows, spec.Cols, spec.S())
	if err != nil {
		t.Fatal(err)
	}
	idealSpec := Spec{Rows: spec.Rows, Cols: spec.Cols, Sources: ideal, Indexing: spec.Indexing}
	gain := growthEfficiency(idealSpec) - growthEfficiency(spec)
	if gain <= 0 {
		t.Fatalf("cross distribution should benefit from repositioning (gain %v)", gain)
	}

	plain := runSim(t, inner, spec, 2048)
	always := runSim(t, ReposAdaptive(inner, 0), spec, 2048)
	if always.Elapsed == plain.Elapsed {
		t.Fatal("margin 0 with positive gain did not reposition")
	}

	// gain == margin: the improvement is not strictly above the margin, so
	// the permutation is skipped and the run matches the inner algorithm.
	at := runSim(t, ReposAdaptive(inner, gain), spec, 2048)
	if at.Elapsed != plain.Elapsed {
		t.Errorf("margin == gain repositioned: elapsed %v, inner alone %v", at.Elapsed, plain.Elapsed)
	}

	// A margin a hair below the gain repositions again.
	below := runSim(t, ReposAdaptive(inner, gain-1e-9), spec, 2048)
	if below.Elapsed != always.Elapsed {
		t.Errorf("margin just below gain skipped: elapsed %v, always-reposition %v", below.Elapsed, always.Elapsed)
	}

	// Output correctness is preserved on both sides of the boundary.
	out := runLive(t, ReposAdaptive(inner, gain), spec, 24)
	checkOut(t, "ReposAdaptive@margin", Broadcast, spec, out, 24)
}

// TestRegistryMemoized checks the memoized registry invariants: stable
// instances, isolated returned slices, and map-backed name lookup.
func TestRegistryMemoized(t *testing.T) {
	a, b := Registry(), Registry()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("registry sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name() != b[i].Name() {
			t.Errorf("algorithm %d order unstable: %s vs %s", i, a[i].Name(), b[i].Name())
		}
	}
	// The returned slice is a copy: scribbling on it must not leak.
	a[0] = nil
	if c := Registry(); c[0] == nil {
		t.Fatal("Registry returns a shared slice")
	}
	for _, alg := range b {
		got, err := ByName(alg.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != alg.Name() {
			t.Errorf("ByName(%s) returned %s", alg.Name(), got.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}
