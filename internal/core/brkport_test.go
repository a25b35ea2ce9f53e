package core

import (
	"fmt"
	"testing"

	"repro/internal/dist"
)

// TestBrKPortAllPortCounts sweeps the (k+1)-section generalization over
// port counts the registry instance (k=4) does not cover, including the
// k=1 degenerate case that must behave like pairwise sectioning, on
// shapes that exercise short last subsegments and straggler groups.
func TestBrKPortAllPortCounts(t *testing.T) {
	meshes := [][2]int{{1, 7}, {4, 4}, {3, 5}, {5, 5}, {4, 7}}
	for _, k := range []int{1, 2, 3, 5, 8} {
		alg := BrKPort(k)
		for _, m := range meshes {
			r, c := m[0], m[1]
			p := r * c
			for _, s := range []int{1, 2, p / 2, p} {
				if s < 1 {
					continue
				}
				for _, d := range []dist.Distribution{dist.Equal(), dist.Square(), dist.Cross()} {
					spec := makeSpec(t, d, r, c, s)
					label := fmt.Sprintf("%s/%s(%d)/%dx%d", alg.Name(), d.Name(), s, r, c)
					out, _ := runSim(t, alg, spec, 16)
					checkOut(t, label, Broadcast, spec, out, 16)
				}
			}
		}
	}
}

// TestBrKPortName pins the registry naming scheme the planner's analytic
// model parses the port count out of.
func TestBrKPortName(t *testing.T) {
	if got := BrKPort(4).Name(); got != "Br_kport4" {
		t.Errorf("BrKPort(4).Name() = %q, want Br_kport4", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("BrKPort(0) accepted")
		}
	}()
	BrKPort(0)
}
