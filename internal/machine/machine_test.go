package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestTorusDims(t *testing.T) {
	cases := []struct{ p, x, y, z int }{
		{1, 1, 1, 1},
		{2, 1, 1, 2},
		{8, 2, 2, 2},
		{16, 2, 2, 4},
		{32, 2, 4, 4},
		{64, 4, 4, 4},
		{128, 4, 4, 8},
		{256, 4, 8, 8},
		{7, 1, 1, 7}, // prime: degenerate ring
	}
	for _, tc := range cases {
		x, y, z := TorusDims(tc.p)
		if x != tc.x || y != tc.y || z != tc.z {
			t.Errorf("TorusDims(%d) = %d×%d×%d, want %d×%d×%d", tc.p, x, y, z, tc.x, tc.y, tc.z)
		}
	}
}

func TestTorusDimsProduct(t *testing.T) {
	f := func(pu uint16) bool {
		p := int(pu)%1024 + 1
		x, y, z := TorusDims(p)
		return x*y*z == p && x <= y && y <= z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParagonMachines(t *testing.T) {
	m := Paragon(10, 12)
	if m.P() != 120 || m.Rows != 10 || m.Cols != 12 {
		t.Fatalf("Paragon dims: %+v", m)
	}
	if m.Topo.Nodes() != 120 {
		t.Fatalf("topology nodes %d", m.Topo.Nodes())
	}
	if m.Cfg.Name != "paragon-nx" {
		t.Fatalf("config %s", m.Cfg.Name)
	}
	mpi := ParagonMPI(10, 12)
	if mpi.Cfg.Name != "paragon-mpi" {
		t.Fatalf("MPI config %s", mpi.Cfg.Name)
	}
	if mpi.Cfg.SendOverhead <= m.Cfg.SendOverhead {
		t.Fatal("MPI overhead not above NX")
	}
	if _, err := m.NewNetwork(); err != nil {
		t.Fatal(err)
	}
}

func TestT3DMachine(t *testing.T) {
	m := T3D(128)
	if m.P() != 128 {
		t.Fatalf("P = %d", m.P())
	}
	if m.Rows != 8 || m.Cols != 16 {
		t.Fatalf("logical mesh %d×%d", m.Rows, m.Cols)
	}
	if m.Topo.Degree() != 6 {
		t.Fatalf("degree %d", m.Topo.Degree())
	}
	snake := topology.Snake3DPlacement(m.Topo.(*topology.Torus3D))
	for r := 0; r < m.P(); r++ {
		if m.Place.Node(r) != snake.Node(r) {
			t.Fatalf("rank %d on node %d, want the snake placement's %d", r, m.Place.Node(r), snake.Node(r))
		}
	}
	if _, err := m.NewNetwork(); err != nil {
		t.Fatal(err)
	}
}

func TestT3DRandomDiffers(t *testing.T) {
	a := T3DRandom(64, 1)
	b := T3D(64)
	diff := false
	for r := 0; r < 64; r++ {
		if a.Place.Node(r) != b.Place.Node(r) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("random placement identical to snake placement")
	}
}

func TestSnakePlacementAdjacency(t *testing.T) {
	// Consecutive ranks under the snake placement must be torus
	// neighbours.
	topo := topology.MustTorus3D(4, 4, 8)
	place := topology.Snake3DPlacement(topo)
	for r := 0; r+1 < topo.Nodes(); r++ {
		if d := topo.Distance(place.Node(r), place.Node(r+1)); d != 1 {
			t.Fatalf("ranks %d,%d at distance %d", r, r+1, d)
		}
	}
}

func TestSnakePlacementBreaksStrideResonance(t *testing.T) {
	// Stride-4 ranks must not collapse onto a single x-plane of the
	// 4×4×8 torus (the artifact that motivated the snake placement).
	topo := topology.MustTorus3D(4, 4, 8)
	place := topology.Snake3DPlacement(topo)
	xs := map[int]bool{}
	for r := 0; r < topo.Nodes(); r += 4 {
		x, _, _ := topo.Coord(place.Node(r))
		xs[x] = true
	}
	if len(xs) < 2 {
		t.Fatalf("stride-4 ranks occupy only x-planes %v", xs)
	}
}

// TestElapsedKeepsBoundPrograms: Elapsed gives back a program it compiled
// for the call, never a bound algorithm's. A bound algorithm measured twice
// gives the makespan of the unbound one both times, its program still
// replays to it afterwards, and an unbound algorithm's makespan is what
// RunSim reports.
func TestElapsedKeepsBoundPrograms(t *testing.T) {
	m := Paragon(4, 4)
	spec := core.Spec{Rows: 4, Cols: 4, Sources: []int{0, 5, 10, 15}, Indexing: topology.SnakeRowMajor}
	for _, name := range []string{"Br_Lin", "Repos_xy_source", "PersAlltoAll"} {
		alg, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "PersAlltoAll" {
			spec.Sources = core.AllRanksSources(16)
		}
		res, nw, err := m.RunSim(alg, spec, Uniform(1024), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nw.Release()
		if got, err := m.Elapsed(alg, spec, Uniform(1024)); err != nil || got != res.Elapsed {
			t.Errorf("%s: Elapsed gives %v, %v; RunSim %v", name, got, err, res.Elapsed)
		}
		bound := core.Bind(alg, spec)
		for i := range 2 {
			if got, err := m.Elapsed(bound, spec, Uniform(1024)); err != nil || got != res.Elapsed {
				t.Errorf("%s, bound, call %d: Elapsed gives %v, %v; want %v", name, i, got, err, res.Elapsed)
			}
		}
		again, nw, err := m.RunSim(bound, spec, Uniform(1024), sim.Options{})
		if err != nil {
			t.Fatalf("%s: the bound program no longer replays: %v", name, err)
		}
		nw.Release()
		if again.Program != core.ProgramOf(bound) || again.Elapsed != res.Elapsed {
			t.Errorf("%s: the bound program replays to %v, want %v", name, again.Elapsed, res.Elapsed)
		}
	}
	// Bound to a 4×4 spec, an algorithm has no program for a 2×2 machine,
	// though the 2×2 spec it is asked for there covers it.
	small := core.Spec{Rows: 2, Cols: 2, Sources: []int{0}, Indexing: topology.SnakeRowMajor}
	bound := core.Bind(core.BrLin(), core.Spec{Rows: 4, Cols: 4, Sources: []int{0, 5, 10, 15}, Indexing: topology.SnakeRowMajor})
	if _, err := Paragon(2, 2).Elapsed(bound, small, Uniform(1024)); err == nil || err.Error() != "machine: Br_Lin has a program for 16 ranks, paragon-nx-2x2 has 4" {
		t.Errorf("a 4×4 binding on a 2×2 machine: got %v", err)
	}
}
