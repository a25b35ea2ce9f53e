package core

import (
	"repro/internal/comm"
)

// The scatter algorithms distribute the root's p per-destination chunks
// (InitialFor builds them with Origin = destination rank); every
// processor finishes holding exactly its own chunk. The allgather
// algorithms are the ring and recursive-doubling schedules the broadcast
// ablations use (baseline.go), registered a second time as first-class
// AllGather entries where every rank contributes.

// ScatterBinomial returns Scatter_Binomial, the minimum-spanning-tree
// scatter. The root starts with all p chunks; in round mask (from the
// highest power of two below p downward) every holder forwards the half
// of its block addressed to relative ranks [rel+mask, rel+2·mask) to
// rel+mask. Each processor receives exactly once and forwards ever-smaller
// blocks, so the root sends ⌈log2 p⌉ messages instead of p−1.
//
// The root enters with InitialFor's layout, chunk d at index d; rotated
// to start at its own chunk, every block a processor holds is a run of
// consecutive relative ranks, so what it forwards is a suffix of its
// bundle and what it keeps a prefix.
func ScatterBinomial() Algorithm {
	return schedule{name: "Scatter_Binomial", coll: Scatter, write: func(spec Spec) comm.Script {
		p, root := spec.P(), spec.Sources[0]
		top := 1
		for top < p {
			top <<= 1
		}
		return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
			b.Barrier()
			if p == 1 {
				return
			}
			rel := (rank - root + p) % p
			real := func(r int) int { return (r + root) % p }
			if rel == 0 {
				b.Take(0, 0, comm.Sel{Off: root, Stride: 1, Count: p})
			}
			iter := 0
			for mask := top >> 1; mask > 0; mask >>= 1 {
				b.Iter(iter)
				iter++
				switch rel % (2 * mask) {
				case 0:
					if rel+mask >= p {
						continue
					}
					// The block is [rel, min(rel+2·mask, p)).
					b.SendParts(real(rel+mask), 0, comm.Sel{Off: mask, Stride: 1, Count: min(rel+2*mask, p) - rel - mask})
					b.Take(0, 0, comm.Sel{Off: 0, Stride: 1, Count: mask})
				case mask:
					b.Recv(real(rel-mask), 0)
					b.Combine(0)
				}
			}
		}}
	}}
}

// ScatterDirect returns Scatter_Direct: the root sends every chunk
// straight to its destination, one message per processor — the serialized
// library baseline the binomial tree is measured against (the scatter
// analogue of the 2-Step's congestion at P0). The root enters with
// InitialFor's layout, chunk d at index d, and keeps its own.
func ScatterDirect() Algorithm {
	return schedule{name: "Scatter_Direct", coll: Scatter, write: func(spec Spec) comm.Script {
		p, root := spec.P(), spec.Sources[0]
		return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
			b.Barrier()
			if rank != root {
				b.Recv(root, 0)
				return
			}
			for r := 0; r < p; r++ {
				if r != root {
					b.SendParts(r, 0, comm.Sel{Off: r, Stride: 1, Count: 1})
				}
			}
			b.Take(0, 0, comm.Sel{Off: root, Stride: 1, Count: 1})
		}}
	}}
}

// AgRing returns Ag_Ring, the classic ring allgather with every rank
// contributing (p−1 neighbour steps, bandwidth-optimal volume).
func AgRing() Algorithm { return allGatherRing("Ag_Ring", AllGather) }

// AgRecDouble returns Ag_RecDouble, the recursive-doubling allgather with
// every rank contributing (log-depth on power-of-two machines, ring
// fallback otherwise).
func AgRecDouble() Algorithm { return allGatherRecDouble("Ag_RecDouble", AllGather) }
