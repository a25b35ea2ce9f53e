package topology

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMesh2DCoordRoundTrip(t *testing.T) {
	m := MustMesh2D(7, 9)
	for node := 0; node < m.Nodes(); node++ {
		if got := m.Node(node/m.Cols, node%m.Cols); got != node {
			t.Fatalf("Node(%d, %d) = %d, want %d", node/m.Cols, node%m.Cols, got, node)
		}
	}
}

func TestMesh2DRouteEndpoints(t *testing.T) {
	m := MustMesh2D(5, 6)
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			path := m.AppendRoute(nil, src, dst)
			if len(path) != m.Distance(src, dst) {
				t.Fatalf("route %d→%d: len=%d want distance %d", src, dst, len(path), m.Distance(src, dst))
			}
			if src == dst {
				if len(path) != 0 {
					t.Fatalf("self route %d not empty", src)
				}
				continue
			}
			if path[0].From != src {
				t.Fatalf("route %d→%d starts at %d", src, dst, path[0].From)
			}
			// Walk the path link by link and confirm it ends at dst.
			cur := src
			for _, l := range path {
				if l.From != cur {
					t.Fatalf("route %d→%d: discontinuity at %v (cur=%d)", src, dst, l, cur)
				}
				cur = meshStep(m, cur, l.Dir, t)
			}
			if cur != dst {
				t.Fatalf("route %d→%d ends at %d", src, dst, cur)
			}
		}
	}
}

func meshStep(m *Mesh2D, node int, d Direction, t *testing.T) int {
	r, c := node/m.Cols, node%m.Cols
	switch d {
	case East:
		c++
	case West:
		c--
	case South:
		r++
	case North:
		r--
	default:
		t.Fatalf("unexpected mesh direction %v", d)
	}
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		t.Fatalf("mesh route stepped off the mesh: node %d dir %v", node, d)
	}
	return m.Node(r, c)
}

func TestMesh2DXYOrder(t *testing.T) {
	// XY routing must finish all horizontal hops before any vertical hop.
	m := MustMesh2D(8, 8)
	path := m.AppendRoute(nil, m.Node(1, 1), m.Node(5, 6))
	sawVertical := false
	for _, l := range path {
		switch l.Dir {
		case South, North:
			sawVertical = true
		case East, West:
			if sawVertical {
				t.Fatalf("horizontal hop after vertical hop: %v", path)
			}
		}
	}
}

func TestTorus3DCoordRoundTrip(t *testing.T) {
	tor := MustTorus3D(4, 3, 5)
	for node := 0; node < tor.Nodes(); node++ {
		x, y, z := tor.Coord(node)
		if got := tor.Node(x, y, z); got != node {
			t.Fatalf("Node(Coord(%d)) = %d", node, got)
		}
	}
}

func torusStep(tor *Torus3D, node int, d Direction, t *testing.T) int {
	x, y, z := tor.Coord(node)
	switch d {
	case East:
		x = (x + 1) % tor.X
	case West:
		x = (x - 1 + tor.X) % tor.X
	case South:
		y = (y + 1) % tor.Y
	case North:
		y = (y - 1 + tor.Y) % tor.Y
	case Up:
		z = (z + 1) % tor.Z
	case Down:
		z = (z - 1 + tor.Z) % tor.Z
	default:
		t.Fatalf("unexpected torus direction %v", d)
	}
	return tor.Node(x, y, z)
}

func TestTorus3DRouteEndpoints(t *testing.T) {
	tor := MustTorus3D(4, 4, 2) // 32 nodes, small enough for all pairs
	for src := 0; src < tor.Nodes(); src++ {
		for dst := 0; dst < tor.Nodes(); dst++ {
			path := tor.AppendRoute(nil, src, dst)
			if len(path) != tor.Distance(src, dst) {
				t.Fatalf("route %d→%d: len=%d want %d", src, dst, len(path), tor.Distance(src, dst))
			}
			cur := src
			for _, l := range path {
				if l.From != cur {
					t.Fatalf("route %d→%d: discontinuity at %v", src, dst, l)
				}
				cur = torusStep(tor, cur, l.Dir, t)
			}
			if cur != dst {
				t.Fatalf("route %d→%d ends at %d", src, dst, cur)
			}
		}
	}
}

func TestTorusShorterDirection(t *testing.T) {
	tor := MustTorus3D(8, 1, 1)
	// 0 → 6 should wrap west (2 hops), not go east (6 hops).
	if d := tor.Distance(0, 6); d != 2 {
		t.Fatalf("Distance(0,6) on ring of 8 = %d, want 2", d)
	}
	// Tie (distance 4 either way) must still be 4 hops.
	if d := tor.Distance(0, 4); d != 4 {
		t.Fatalf("Distance(0,4) on ring of 8 = %d, want 4", d)
	}
}

func TestTorusDistanceSymmetric(t *testing.T) {
	tor := MustTorus3D(5, 3, 4)
	f := func(a, b uint16) bool {
		s := int(a) % tor.Nodes()
		d := int(b) % tor.Nodes()
		return tor.Distance(s, d) == tor.Distance(d, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnakeIndexingBijective(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {4, 4}, {5, 6}, {10, 10}, {3, 40}} {
		m := MustMesh2D(dims[0], dims[1])
		for _, ix := range []Indexing{RowMajor, SnakeRowMajor} {
			seen := make(map[int]bool, m.Nodes())
			for rank := 0; rank < m.Nodes(); rank++ {
				node := ix.RankToNode(m, rank)
				if seen[node] {
					t.Fatalf("%v on %v: node %d hit twice", ix, m.Name(), node)
				}
				seen[node] = true
				if back := nodeToRank(ix, m, node); back != rank {
					t.Fatalf("%v on %v: nodeToRank(RankToNode(%d)) = %d", ix, m.Name(), rank, back)
				}
			}
		}
	}
}

func TestSnakeAdjacency(t *testing.T) {
	// Consecutive snake ranks must be physical mesh neighbours.
	m := MustMesh2D(6, 5)
	for rank := 0; rank+1 < m.Nodes(); rank++ {
		a := SnakeRowMajor.RankToNode(m, rank)
		b := SnakeRowMajor.RankToNode(m, rank+1)
		if m.Distance(a, b) != 1 {
			t.Fatalf("snake ranks %d,%d map to nodes %d,%d at distance %d", rank, rank+1, a, b, m.Distance(a, b))
		}
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	for _, p := range []*Placement{IdentityPlacement(37), RandomPlacement(64, 1), RandomPlacement(64, 2)} {
		seen := make([]bool, p.Size())
		for rank := 0; rank < p.Size(); rank++ {
			node := p.Node(rank)
			if seen[node] {
				t.Fatalf("placement of %d ranks: node %d hit twice", p.Size(), node)
			}
			seen[node] = true
		}
	}
}

func TestRandomPlacementDeterministic(t *testing.T) {
	a := RandomPlacement(100, 42)
	b := RandomPlacement(100, 42)
	for i := 0; i < 100; i++ {
		if a.Node(i) != b.Node(i) {
			t.Fatalf("same seed diverged at rank %d", i)
		}
	}
	c := RandomPlacement(100, 43)
	same := true
	for i := 0; i < 100; i++ {
		if a.Node(i) != c.Node(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestFactorizations(t *testing.T) {
	got := Factorizations(120)
	want := [][2]int{{1, 120}, {2, 60}, {3, 40}, {4, 30}, {5, 24}, {6, 20}, {8, 15}, {10, 12}}
	if len(got) != len(want) {
		t.Fatalf("Factorizations(120) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Factorizations(120)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNearSquare(t *testing.T) {
	cases := []struct{ p, r, c int }{
		{100, 10, 10}, {256, 16, 16}, {120, 10, 12}, {4, 2, 2}, {7, 1, 7}, {2, 1, 2},
	}
	for _, tc := range cases {
		r, c := NearSquare(tc.p)
		if r != tc.r || c != tc.c {
			t.Errorf("NearSquare(%d) = %d×%d, want %d×%d", tc.p, r, c, tc.r, tc.c)
		}
	}
}

func TestInvalidDimensions(t *testing.T) {
	if _, err := NewMesh2D(0, 5); err == nil {
		t.Error("NewMesh2D(0,5) succeeded")
	}
	if _, err := NewMesh2D(5, -1); err == nil {
		t.Error("NewMesh2D(5,-1) succeeded")
	}
	if _, err := NewTorus3D(2, 0, 2); err == nil {
		t.Error("NewTorus3D(2,0,2) succeeded")
	}
}

func TestMeshRouteProperty(t *testing.T) {
	m := MustMesh2D(9, 11)
	f := func(a, b uint16) bool {
		src := int(a) % m.Nodes()
		dst := int(b) % m.Nodes()
		path := m.AppendRoute(nil, src, dst)
		if len(path) != m.Distance(src, dst) {
			return false
		}
		// Triangle inequality through a random midpoint.
		mid := (src + dst) / 2
		return m.Distance(src, dst) <= m.Distance(src, mid)+m.Distance(mid, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirectionStrings(t *testing.T) {
	names := map[Direction]string{
		Self: "self", East: "east", West: "west", South: "south",
		North: "north", Up: "up", Down: "down",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
	if Direction(42).String() == "" {
		t.Error("unknown direction has empty name")
	}
	l := Link{From: 7, Dir: East}
	if l.String() != "7→east" {
		t.Errorf("Link.String() = %q", l.String())
	}
}

func TestTopologyNames(t *testing.T) {
	if got := MustMesh2D(3, 4).Name(); got != "mesh3x4" {
		t.Errorf("mesh name %q", got)
	}
	if got := MustTorus3D(2, 3, 4).Name(); got != "torus2x3x4" {
		t.Errorf("torus name %q", got)
	}
	if got := MustHypercube(5).Name(); got != "hcube5" {
		t.Errorf("hypercube name %q", got)
	}
	if got := SnakeRowMajor.String(); got != "snake" {
		t.Errorf("indexing name %q", got)
	}
	if got := RowMajor.String(); got != "row-major" {
		t.Errorf("indexing name %q", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := MustMesh2D(2, 2)
	for label, fn := range map[string]func(){
		"mesh node":      func() { m.Node(5, 0) },
		"mesh route":     func() { m.AppendRoute(nil, 0, 9) },
		"torus coord":    func() { MustTorus3D(2, 2, 2).Coord(-1) },
		"torus node":     func() { MustTorus3D(2, 2, 2).Node(0, 0, 5) },
		"hcube route":    func() { MustHypercube(2).AppendRoute(nil, 0, 7) },
		"rank to node":   func() { SnakeRowMajor.RankToNode(m, 9) },
		"placement node": func() { IdentityPlacement(2).Node(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", label)
				}
			}()
			fn()
		}()
	}
}

// nodeToRank converts a row-major mesh node id back to a logical rank:
// the inverse of ix.RankToNode, as the bijection test asserts.
func nodeToRank(ix Indexing, m *Mesh2D, node int) int {
	checkNode(m, node)
	switch ix {
	case RowMajor:
		return node
	case SnakeRowMajor:
		row := node / m.Cols
		col := node % m.Cols
		if row%2 == 1 {
			col = m.Cols - 1 - col
		}
		return row*m.Cols + col
	}
	panic(fmt.Sprintf("topology: unknown indexing %d", int(ix)))
}
