package topology

import (
	"testing"
	"testing/quick"
)

func TestHypercubeBasics(t *testing.T) {
	h := MustHypercube(4)
	if h.Nodes() != 16 || h.Degree() != 4 {
		t.Fatalf("nodes=%d degree=%d", h.Nodes(), h.Degree())
	}
	if _, err := NewHypercube(-1); err == nil {
		t.Error("negative dimension accepted")
	}
	if _, err := NewHypercube(21); err == nil {
		t.Error("oversized dimension accepted")
	}
	if h0 := MustHypercube(0); h0.Nodes() != 1 {
		t.Errorf("0-cube has %d nodes", h0.Nodes())
	}
}

func TestHypercubeRouteWalks(t *testing.T) {
	h := MustHypercube(5)
	for src := 0; src < h.Nodes(); src++ {
		for dst := 0; dst < h.Nodes(); dst++ {
			path := h.AppendRoute(nil, src, dst)
			if len(path) != h.Distance(src, dst) {
				t.Fatalf("route %d→%d: %d links, want %d", src, dst, len(path), h.Distance(src, dst))
			}
			cur := src
			for _, l := range path {
				if l.From != cur {
					t.Fatalf("route %d→%d discontinuous at %v", src, dst, l)
				}
				k := int(l.Dir) - 1
				if k < 0 || k >= h.Dim {
					t.Fatalf("route %d→%d has invalid dimension %v", src, dst, l.Dir)
				}
				cur ^= 1 << k
			}
			if cur != dst {
				t.Fatalf("route %d→%d ends at %d", src, dst, cur)
			}
		}
	}
}

func TestHypercubeEcubeOrder(t *testing.T) {
	// e-cube corrects bits lowest-first; dimension indices along a path
	// must strictly increase.
	h := MustHypercube(6)
	path := h.AppendRoute(nil, 0, 0b101101)
	prev := -1
	for _, l := range path {
		k := int(l.Dir) - 1
		if k <= prev {
			t.Fatalf("dimensions not increasing: %v", path)
		}
		prev = k
	}
}

func TestHypercubeDistanceSymmetricTriangle(t *testing.T) {
	h := MustHypercube(7)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%h.Nodes(), int(b)%h.Nodes(), int(c)%h.Nodes()
		if h.Distance(x, y) != h.Distance(y, x) {
			return false
		}
		return h.Distance(x, z) <= h.Distance(x, y)+h.Distance(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHypercubeNeighbourOneHop(t *testing.T) {
	h := MustHypercube(8)
	for k := 0; k < h.Dim; k++ {
		if d := h.Distance(0, 1<<k); d != 1 {
			t.Fatalf("dimension-%d neighbour at distance %d", k, d)
		}
	}
	// Br_Lin's halving partner (rank distance p/2) is one hop.
	if d := h.Distance(3, 3^(h.Nodes()/2)); d != 1 {
		t.Fatalf("halving partner at distance %d", d)
	}
}
