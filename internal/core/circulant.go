package core

import (
	"repro/internal/comm"
)

// BcastCirculant returns Bcast_Circulant, the logarithmic-time broadcast
// schedule on the circulant graph C_p(1, 2, 4, …) after Träff (arXiv
// 2407.18004). In round j every processor may send to the fixed skip
// partner (rank + 2^j) mod p, so the communication graph is a circulant
// graph and the schedule completes in ⌈log2 p⌉ rounds for any p — no
// power-of-two padding round, unlike the binomial tree, and every round
// uses disjoint constant-stride links, which map to short paths under the
// snake placements.
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
//
// A processor keeps its bundle ordered by that distance d. What it holds
// before round j is every source at distance below 2^j, what it forwards
// is those below min(2^j, p − 2^j) — a prefix — and what it receives lies
// at distances 2^j and up, in order, so it appends: the round's send is a
// selector of the bundle. A last reordering hands the bundle out by origin.
func BcastCirculant() Algorithm {
	return schedule{name: "Bcast_Circulant", coll: Broadcast, write: circulantScript}
}

func circulantScript(spec Spec) comm.Script {
	p, s := spec.P(), spec.S()
	// within counts the sources at distance below limit from rank.
	within := func(rank, limit int) int {
		n := 0
		for _, o := range spec.Sources {
			if (rank-o+p)%p < limit {
				n++
			}
		}
		return n
	}
	return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		b.Barrier()
		if p == 1 {
			return
		}
		b.Grow(0, s)
		iter := 0
		for skip := 1; skip < p; skip <<= 1 {
			b.Iter(iter)
			iter++
			limit := min(skip, p-skip)
			if n := within(rank, limit); n > 0 {
				b.SendParts((rank+skip)%p, 0, comm.Sel{Off: 0, Stride: 1, Count: n})
			}
			// The predecessor at distance skip sends iff it holds a useful
			// part, which the closed form answers without probing.
			if from := (rank - skip + p) % p; within(from, limit) > 0 {
				b.Merge(from, 0)
			}
		}
		// Distances 0, 1, … are origins rank, rank−1, … around the ring:
		// origin order is the bundle reversed, starting after the k
		// sources above rank.
		k := s - within(rank, rank+1)
		b.Take(0, 0, comm.Sel{Off: (2*s - 1 - k) % s, Stride: -1, Count: s})
	}}
}
