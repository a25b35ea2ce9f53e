package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/topology"
)

// sameProgram reports whether a and b run the same operations rank by
// rank: the same register count, the same ops, and the same token and
// selector behind each op that reads a table. Phase names, which only a
// trace shows, are not compared.
func sameProgram(a, b *comm.Program) bool {
	if a.P() != b.P() || a.Regs() != b.Regs() {
		return false
	}
	for r := range a.P() {
		x, y := a.Ops(r), b.Ops(r)
		if !slices.Equal(x, y) {
			return false
		}
		for i, op := range x {
			switch op.Kind {
			case comm.OpToken:
				ta, na := a.Token(op)
				tb, nb := b.Token(y[i])
				if ta != tb || na != nb {
					return false
				}
			case comm.OpSendParts, comm.OpTake:
				sa, pa := a.Selection(op)
				sb, pb := b.Selection(y[i])
				if sa != sb || pa != pb {
					return false
				}
			}
		}
	}
	return true
}

// xyCoincide is where Br_xy_dim and Br_xy_source compile to one
// program: they process the same dimension first (Br_xy_source rows
// first iff max_r < max_c, Br_xy_dim iff r ≥ c), or one dimension has
// extent 1, whose pass sends nothing, so the order is moot.
func xyCoincide(spec Spec) bool {
	maxR, maxC := maxPerLine(spec)
	return (maxR < maxC) == (spec.Rows >= spec.Cols) || spec.Rows == 1 || spec.Cols == 1
}

// idealCoincide is where the xy pair, run on the ideal placement of s
// sources on an r×c mesh that each entry asks for (IdealFor), compiles
// to one program: both ideals place the same ranks — always when r < c,
// where Br_xy_dim's ideal is full rows too — and xyCoincide holds there.
func idealCoincide(r, c, s int) bool {
	src, err := IdealFor(BrXYSource(), r, c).Sources(r, c, s)
	if err != nil {
		panic(err)
	}
	dim, err := IdealFor(BrXYDim(), r, c).Sources(r, c, s)
	if err != nil {
		panic(err)
	}
	return slices.Equal(src, dim) && xyCoincide(Spec{Rows: r, Cols: c, Sources: src})
}

// TestRegistryCoincidences pins where two registry entries compile to
// the same program, op for op, on Paragon-shaped meshes (square, odd,
// 1×p, p×1, large) under all eight distributions at s ∈ {1, p/8, p/4,
// p/2, p}. Each pair coincides exactly where its rule says, so a
// schedule change that makes two entries coincide or diverge fails by
// name: <a>=<b>/<r>x<c>/<dist>/<s>.
func TestRegistryCoincidences(t *testing.T) {
	pairs := []struct {
		a, b string
		rule func(spec Spec) bool
	}{
		// Recursive doubling at p not a power of two falls back to the ring.
		{"RD_AllGather", "Ring_AllGather", func(spec Spec) bool { return !isPow2(spec.P()) }},
		{"Ag_RecDouble", "Ag_Ring", func(spec Spec) bool { return !isPow2(spec.P()) }},
		{"Br_xy_dim", "Br_xy_source", xyCoincide},
		// The repositioning permutation sends the k-th source to the k-th
		// ideal position, so it depends on the ideal, not the entry.
		{"Repos_xy_dim", "Repos_xy_source", func(spec Spec) bool { return idealCoincide(spec.Rows, spec.Cols, spec.S()) }},
		// The halves and their source counts do not depend on the inner
		// broadcast; each half holding sources runs the pair on its ideal.
		{"Part_xy_dim", "Part_xy_source", func(spec Spec) bool {
			g1, g2 := splitMachine(spec)
			for _, g := range []group{g1, g2} {
				if g.sources > 0 && !idealCoincide(g.rows, g.cols, g.sources) {
					return false
				}
			}
			return true
		}},
	}
	for _, m := range [][2]int{{4, 4}, {5, 3}, {1, 13}, {13, 1}, {10, 10}, {16, 16}, {8, 15}, {2, 8}, {7, 9}} {
		r, c := m[0], m[1]
		p := r * c
		counts := slices.Compact([]int{1, max(p/8, 1), max(p/4, 1), p / 2, p})
		for _, d := range dist.All() {
			for _, s := range counts {
				sources, err := d.Sources(r, c, s)
				if err != nil {
					t.Fatal(err)
				}
				spec := Spec{Rows: r, Cols: c, Sources: sources, Indexing: topology.SnakeRowMajor}
				for _, pair := range pairs {
					name := fmt.Sprintf("%s=%s/%dx%d/%s/%d", pair.a, pair.b, r, c, d.Name(), s)
					a, b := mustByName(t, pair.a), mustByName(t, pair.b)
					on := spec
					if !CollectiveOf(a).Caps().TakesSources {
						on = Spec{Rows: r, Cols: c, Sources: AllRanksSources(p), Indexing: spec.Indexing}
					}
					pa, err := Compile(a, on)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					pb, err := Compile(b, on)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got, want := sameProgram(pa, pb), pair.rule(spec); got != want {
						t.Errorf("%s: same program %v, rule says %v", name, got, want)
					}
				}
			}
		}
	}
}

func mustByName(t *testing.T, name string) Algorithm {
	t.Helper()
	alg, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}
