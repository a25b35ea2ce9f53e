package core

import (
	"repro/internal/collective"
	"repro/internal/comm"
)

// The scatter algorithms distribute the root's p per-destination chunks
// (InitialFor builds them with Origin = destination rank); every
// processor finishes holding exactly its own chunk. The allgather
// algorithms are the ring and recursive-doubling schedules the broadcast
// ablations use (baseline.go), registered a second time as first-class
// AllGather entries where every rank contributes.

// scatterBinomial is Scatter_Binomial: the minimum-spanning-tree scatter.
// The root starts with all p chunks; in round mask (from the highest
// power of two below p downward) every holder forwards the half of its
// block addressed to relative ranks [rel+mask, rel+2·mask) to rel+mask.
// Each processor receives exactly once and forwards ever-smaller blocks,
// so the root sends ⌈log2 p⌉ messages instead of p−1.
type scatterBinomial struct{}

// ScatterBinomial returns the binomial-tree scatter.
func ScatterBinomial() Algorithm { return scatterBinomial{} }

func (scatterBinomial) Name() string { return "Scatter_Binomial" }

func (scatterBinomial) Collective() Collective { return Scatter }

func (scatterBinomial) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	c.Barrier()
	p := c.Size()
	rank := c.Rank()
	root := spec.Sources[0]
	if p == 1 {
		return mine
	}
	rel := (rank - root + p) % p
	real := func(r int) int { return (r + root) % p }
	destRel := func(pt comm.Part) int { return (pt.Origin - root + p) % p }
	var held []comm.Part
	if rank == root {
		held = mine.Parts
	}
	top := 1
	for top < p {
		top <<= 1
	}
	iter := 0
	for mask := top >> 1; mask > 0; mask >>= 1 {
		comm.MarkIter(c, iter)
		iter++
		switch rel % (2 * mask) {
		case 0:
			if rel+mask >= p {
				continue
			}
			keep := held[:0]
			var fwd []comm.Part
			for _, pt := range held {
				if destRel(pt) >= rel+mask {
					fwd = append(fwd, pt)
				} else {
					keep = append(keep, pt)
				}
			}
			held = keep
			c.Send(real(rel+mask), comm.Message{Parts: fwd})
		case mask:
			m := c.Recv(real(rel - mask))
			comm.ChargeCombine(c, m.Len())
			held = m.Parts
		}
	}
	return comm.Message{Parts: held}
}

// scatterDirect is Scatter_Direct: the root sends every chunk straight to
// its destination, one message per processor — the serialized library
// baseline the binomial tree is measured against (the scatter analogue of
// the 2-Step's congestion at P0).
type scatterDirect struct{}

// ScatterDirect returns the direct (serialized root) scatter.
func ScatterDirect() Algorithm { return scatterDirect{} }

func (scatterDirect) Name() string { return "Scatter_Direct" }

func (scatterDirect) Collective() Collective { return Scatter }

func (scatterDirect) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	c.Barrier()
	p := c.Size()
	root := spec.Sources[0]
	var bundles []comm.Message
	if c.Rank() == root {
		bundles = make([]comm.Message, p)
		for _, pt := range mine.Parts {
			bundles[pt.Origin] = comm.Message{Parts: []comm.Part{pt}}
		}
	}
	return collective.Scatter(c, root, bundles)
}

// AgRing returns Ag_Ring, the classic ring allgather with every rank
// contributing (p−1 neighbour steps, bandwidth-optimal volume).
func AgRing() Algorithm { return allGatherRing("Ag_Ring", AllGather) }

// AgRecDouble returns Ag_RecDouble, the recursive-doubling allgather with
// every rank contributing (log-depth on power-of-two machines, ring
// fallback otherwise).
func AgRecDouble() Algorithm { return allGatherRecDouble("Ag_RecDouble", AllGather) }
