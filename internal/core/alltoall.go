package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/topology"
)

// The all-to-all (personalized exchange) algorithms route p chunks per
// rank, one per destination, carried as parts with transit-encoded
// origins (EncodeA2AOrigin). A2A_Pairwise is the direct p−1-permutation
// exchange the paper's PersAlltoAll pattern generalizes to personalized
// data; A2A_JungSakho is the dimension-ordered torus schedule of Jung &
// Sakho (arXiv 0909.1374), which trades message count for store-and-
// forward volume and wins where per-message startup dominates.

// a2aPairwise is A2A_Pairwise: in step t every rank exchanges one chunk
// with one partner (XOR permutations on power-of-two machines, cyclic
// shifts otherwise) — p−1 messages per rank, each carrying exactly the
// chunk addressed to the partner, no forwarding.
type a2aPairwise struct{}

// A2APairwise returns the pairwise-exchange all-to-all.
func A2APairwise() Algorithm { return a2aPairwise{} }

func (a2aPairwise) Name() string { return "A2A_Pairwise" }

func (a2aPairwise) Collective() Collective { return AllToAll }

func (a2aPairwise) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	c.Barrier()
	p := c.Size()
	rank := c.Rank()
	byDest := make([]comm.Part, p)
	for _, pt := range mine.Parts {
		byDest[DecodeA2ADest(pt.Origin, p)] = pt
	}
	out := comm.Message{Tag: mine.Tag, Parts: append(make([]comm.Part, 0, p), byDest[rank])}
	pow2 := p&(p-1) == 0
	for t := 1; t < p; t++ {
		comm.MarkIter(c, t-1)
		var sendTo, recvFrom int
		if pow2 {
			sendTo = rank ^ t
			recvFrom = rank ^ t
		} else {
			sendTo = (rank + t) % p
			recvFrom = (rank - t + p) % p
		}
		c.Send(sendTo, comm.Message{Parts: []comm.Part{byDest[sendTo]}})
		m := c.Recv(recvFrom)
		out.Parts = append(out.Parts, m.Parts...)
	}
	return FinalizeAlltoall(c, out)
}

// a2aJungSakho is A2A_JungSakho: the optimal all-to-all for k-ary
// n-dimensional tori (Jung & Sakho, arXiv 0909.1374). The rank space is
// decomposed along the torus dimensions of TorusDims(p); in phase d
// (radix k) every rank performs k−1 ring steps within its dimension-d
// ring, each step forwarding every held chunk whose destination
// coordinate in dimension d matches the step's offset. Each chunk thus
// moves dimension by dimension toward its destination: Σ(k_d−1)
// messages per rank (9 at p=64 on a 4×4×4 torus, against the pairwise
// exchange's 63) at the price of store-and-forward volume — exactly the
// startup-vs-bandwidth trade that challenges the 1996 paper's finding
// that the direct MPI_Alltoall always wins on the T3D.
type a2aJungSakho struct{}

// A2AJungSakho returns the Jung–Sakho torus all-to-all.
func A2AJungSakho() Algorithm { return a2aJungSakho{} }

func (a2aJungSakho) Name() string { return "A2A_JungSakho" }

func (a2aJungSakho) Collective() Collective { return AllToAll }

func (a2aJungSakho) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	c.Barrier()
	p := c.Size()
	rank := c.Rank()
	x, y, z := topology.TorusDims(p)
	var radices []int
	for _, k := range []int{x, y, z} {
		if k > 1 {
			radices = append(radices, k)
		}
	}
	held := mine.Parts
	stride := 1
	iter := 0
	for d, k := range radices {
		comm.MarkPhase(c, fmt.Sprintf("dim%d(k=%d)", d, k))
		pos := (rank / stride) % k
		for t := 1; t < k; t++ {
			comm.MarkIter(c, iter)
			iter++
			destPos := (pos + t) % k
			srcPos := (pos - t + k) % k
			destRank := rank + (destPos-pos)*stride
			srcRank := rank + (srcPos-pos)*stride
			var fwd []comm.Part
			keep := held[:0]
			for _, pt := range held {
				dest := DecodeA2ADest(pt.Origin, p)
				if (dest/stride)%k == destPos {
					fwd = append(fwd, pt)
				} else {
					keep = append(keep, pt)
				}
			}
			c.Send(destRank, comm.Message{Parts: fwd})
			m := c.Recv(srcRank)
			// Store-and-forward repack: incoming chunks join the held
			// buffer for the next step, the volume cost the schedule
			// trades for its Σ(k_d−1) message count.
			comm.ChargeCombine(c, m.Len())
			held = append(keep, m.Parts...)
		}
		stride *= k
	}
	return FinalizeAlltoall(c, comm.Message{Tag: mine.Tag, Parts: held})
}
