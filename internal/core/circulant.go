package core

import (
	"sort"

	"repro/internal/comm"
)

// circulant is Bcast_Circulant, the logarithmic-time broadcast schedule on
// the circulant graph C_p(1, 2, 4, …) after Träff (arXiv 2407.18004). In
// round j every processor may send to the fixed skip partner
// (rank + 2^j) mod p, so the communication graph is a circulant graph and
// the schedule completes in ⌈log2 p⌉ rounds for any p — no power-of-two
// padding round, unlike the binomial tree, and every round uses disjoint
// constant-stride links, which map to short paths under the snake
// placements.
//
// The s-to-p generalization keeps the paper's local-knowledge model:
// origin o's holder set before round j is the contiguous ring interval
// [o, o + 2^j), so membership is the closed form (r−o+p) mod p < 2^j and
// every processor decides locally which of its held parts are useful to
// its skip partner — a part is forwarded exactly when the partner's
// interval position (d + 2^j) has not wrapped past p, i.e. when
// d < min(2^j, p − 2^j) for d = (rank−o+p) mod p. All s broadcasts share
// each round's single send (message combining, Section 2 of the 1996
// paper, on Träff's schedule).
type circulant struct{}

// BcastCirculant returns the circulant-graph logarithmic broadcast.
func BcastCirculant() Algorithm { return circulant{} }

func (circulant) Name() string { return "Bcast_Circulant" }

func (circulant) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	c.Barrier()
	p := c.Size()
	rank := c.Rank()
	if p == 1 {
		return mine
	}
	held := make([]bool, p)
	for _, pt := range mine.Parts {
		held[pt.Origin] = true
	}
	acc := mine.Grow(spec.S())
	iter := 0
	for skip := 1; skip < p; skip <<= 1 {
		comm.MarkIter(c, iter)
		iter++
		// A part of origin o at distance d = (rank−o) mod p < skip is
		// useful to the skip partner unless the partner's distance
		// d + skip wraps past p (the partner already holds o).
		limit := skip
		if p-skip < limit {
			limit = p - skip
		}
		var out comm.Message
		for _, pt := range acc.Parts {
			if (rank-pt.Origin+p)%p < limit {
				out.Parts = append(out.Parts, pt)
			}
		}
		if len(out.Parts) > 0 {
			c.Send((rank+skip)%p, out)
		}
		// Symmetric local decision for the receive side: the predecessor
		// at distance skip sends iff it holds a useful part, which the
		// closed form answers without probing.
		from := (rank - skip + p) % p
		expect := false
		for _, o := range spec.Sources {
			if (from-o+p)%p < limit {
				expect = true
				break
			}
		}
		if expect {
			m := c.Recv(from)
			merged := 0
			for _, pt := range m.Parts {
				if !held[pt.Origin] {
					held[pt.Origin] = true
					acc.Parts = append(acc.Parts, pt)
					merged += pt.Len()
				}
			}
			comm.ChargeCombine(c, merged)
		}
	}
	sort.Slice(acc.Parts, func(i, j int) bool { return acc.Parts[i].Origin < acc.Parts[j].Origin })
	return acc
}
