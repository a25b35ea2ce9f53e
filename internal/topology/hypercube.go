package topology

import (
	"fmt"
	"math/bits"
)

// Hypercube is a d-dimensional binary hypercube with p = 2^d nodes, the
// third classic MPP interconnect of the paper's reference list (nCUBE,
// iPSC). Nodes are numbered by their coordinate bit strings; node n and
// n^(1<<k) are neighbours along dimension k.
//
// Br_Lin's recursive halving is the hypercube-native dimension-exchange
// pattern: partners at rank distance p/2 are one hop apart here, which
// the topology ablation demonstrates.
type Hypercube struct {
	Dim int
}

// NewHypercube returns a hypercube of the given dimension (0 ≤ d ≤ 20).
func NewHypercube(dim int) (*Hypercube, error) {
	if dim < 0 || dim > 20 {
		return nil, fmt.Errorf("topology: invalid hypercube dimension %d", dim)
	}
	return &Hypercube{Dim: dim}, nil
}

// MustHypercube is NewHypercube that panics on invalid dimension.
func MustHypercube(dim int) *Hypercube {
	h, err := NewHypercube(dim)
	if err != nil {
		panic(err)
	}
	return h
}

// Name implements Topology.
func (h *Hypercube) Name() string { return fmt.Sprintf("hcube%d", h.Dim) }

// Nodes implements Topology.
func (h *Hypercube) Nodes() int { return 1 << h.Dim }

// Degree implements Topology: one channel per dimension.
func (h *Hypercube) Degree() int { return h.Dim }

// AppendRoute implements Topology with e-cube (dimension-ordered)
// routing: correct the differing address bits from lowest to highest. The
// link leaving node n along dimension k carries Direction(k+1), which is
// unique per (node, dimension) pair — the property the contention model
// needs.
func (h *Hypercube) AppendRoute(path []Link, src, dst int) []Link {
	checkNode(h, src)
	checkNode(h, dst)
	diff := src ^ dst
	cur := src
	for k := 0; k < h.Dim; k++ {
		bit := 1 << k
		if diff&bit == 0 {
			continue
		}
		path = append(path, Link{From: cur, Dir: Direction(k + 1)})
		cur ^= bit
	}
	return path
}

// Distance implements Topology (Hamming distance).
func (h *Hypercube) Distance(src, dst int) int {
	checkNode(h, src)
	checkNode(h, dst)
	return bits.OnesCount(uint(src ^ dst))
}
