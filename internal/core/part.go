package core

import (
	"fmt"

	"repro/internal/comm"
)

// group is one half of a partitioned machine: its global member ranks (in
// row-major order, which is also ascending global rank) and its submesh
// dimensions.
type group struct {
	members    []int
	rows, cols int
	sources    int // s_g, the sources repositioned into this group
}

func (g group) size() int { return len(g.members) }

// splitMachine partitions the r×c mesh into two halves along its longer
// dimension (columns when c ≥ r), the partition of Section 3: it is
// independent of the source positions. The source counts satisfy
// s1/s2 ≈ p1/p2 with both halves non-empty whenever s ≥ 2.
func splitMachine(spec Spec) (g1, g2 group) {
	r, c, s := spec.Rows, spec.Cols, spec.S()
	if c >= r {
		c1 := c / 2
		g1 = group{rows: r, cols: c1}
		g2 = group{rows: r, cols: c - c1}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				rank := i*c + j
				if j < c1 {
					g1.members = append(g1.members, rank)
				} else {
					g2.members = append(g2.members, rank)
				}
			}
		}
	} else {
		r1 := r / 2
		g1 = group{rows: r1, cols: c}
		g2 = group{rows: r - r1, cols: c}
		for rank := 0; rank < r*c; rank++ {
			if rank/c < r1 {
				g1.members = append(g1.members, rank)
			} else {
				g2.members = append(g2.members, rank)
			}
		}
	}
	p := r * c
	s1 := (s*g1.size() + p/2) / p // round(s·p1/p)
	if s >= 2 {
		if s1 < 1 {
			s1 = 1
		}
		if s1 > s-1 {
			s1 = s - 1
		}
	} else if s1 > s {
		s1 = s
	}
	g1.sources = s1
	g2.sources = s - s1
	return g1, g2
}

// partition is a partitioning algorithm (Section 3): reposition the
// sources so that each machine half holds an ideal distribution with
// s1/s2 = p1/p2, run the inner algorithm independently and concurrently
// inside each half, then exchange the two half-bundles pairwise between
// the halves. The inner algorithm is one of the scripted Br_* broadcasts.
func partition(name string, inner Algorithm) Algorithm {
	return schedule{name: name, coll: Broadcast, write: func(spec Spec) comm.Script { return partScript(name, inner, spec) }}
}

// partScript plans the partition once: the two halves, the permutation
// targets, and per half the inner algorithm's script on the half's ideal
// sources in the half's local ranks.
func partScript(name string, inner Algorithm, spec Spec) comm.Script {
	if spec.P() == 1 {
		return barrier
	}
	var halves [2]group
	halves[0], halves[1] = splitMachine(spec)

	// Ideal positions inside each half, translated to global ranks. The
	// permutation sends the first s1 sources into G1 and the rest into G2.
	// An empty half idles until the final exchange.
	targets := make([]int, 0, spec.S())
	var scripts [2]comm.Script
	for h, g := range halves {
		if g.sources == 0 {
			continue
		}
		gen := IdealFor(inner, g.rows, g.cols)
		local, err := gen.Sources(g.rows, g.cols, g.sources)
		if err != nil {
			panic(err)
		}
		for _, l := range local {
			targets = append(targets, g.members[l])
		}
		scripts[h] = scriptOf(inner, Spec{Rows: g.rows, Cols: g.cols, Sources: local, Indexing: spec.Indexing})
	}
	if len(targets) != spec.S() {
		panic(fmt.Sprintf("core: %s planned %d targets for %d sources", name, len(targets), spec.S()))
	}
	// half and local place every rank: which half it is in, and where.
	half, local := make([]int, spec.P()), make([]int, spec.P())
	for h, g := range halves {
		for i, m := range g.members {
			half[m], local[m] = h, i
		}
	}
	small := min(halves[0].size(), halves[1].size())
	prelude := permute(spec, targets)

	return comm.Script{Regs: 1, Done: both(scripts[0].Done, scripts[1].Done), Rank: func(b *comm.Builder, rank int) {
		prelude.Rank(b, rank)

		// Run the inner algorithm inside my half.
		h, myLocal := half[rank], local[rank]
		my, other := halves[h], halves[1-h]
		if my.sources > 0 {
			b.Sub(my.members, myLocal)
			scripts[h].Rank(b, myLocal)
			b.Top()
		}

		// Final inter-half exchange: local index k < small = min(p1,p2) exchanges
		// pairwise; every extra processor of the larger half receives the
		// other half's bundle one-way from member (k mod small) of the smaller
		// half — its own half-bundle is already covered by its pair sibling.
		if myLocal < small && my.sources > 0 {
			b.Send(other.members[myLocal], 0)
			// Serve the extra processors of the larger half mapped to me
			// with my half-bundle (their own half's parts they already
			// hold).
			if my.size() == small {
				for k := small + myLocal; k < other.size(); k += small {
					b.Send(other.members[k], 0)
				}
			}
		}
		if other.sources > 0 {
			b.Merge(other.members[myLocal%small], 0)
		}
	}}
}

// PartLin returns Algorithm Part_Lin (Br_Lin inside each half).
func PartLin() Algorithm { return partition("Part_Lin", BrLin()) }

// PartXYSource returns Algorithm Part_xy_source (Br_xy_source inside each
// half).
func PartXYSource() Algorithm { return partition("Part_xy_source", BrXYSource()) }

// PartXYDim returns Algorithm Part_xy_dim (Br_xy_dim inside each half).
func PartXYDim() Algorithm { return partition("Part_xy_dim", BrXYDim()) }
