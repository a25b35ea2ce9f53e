package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/topology"
)

// The all-to-all (personalized exchange) algorithms route p chunks per
// rank, one per destination; a rank enters with InitialFor's layout,
// chunk d at index d, each chunk's Origin the rank itself, so the routing
// is a matter of indices the schedule knows in advance. A2A_Pairwise is
// the direct p−1-permutation exchange the paper's PersAlltoAll pattern
// generalizes to personalized data; A2A_JungSakho is the
// dimension-ordered torus schedule of Jung & Sakho (arXiv 0909.1374),
// which trades message count for store-and-forward volume and wins where
// per-message startup dominates.

// A2APairwise returns A2A_Pairwise: in step t every rank exchanges one
// chunk with one partner (XOR permutations on power-of-two machines,
// cyclic shifts otherwise) — p−1 messages per rank, each carrying exactly
// the chunk addressed to the partner, no forwarding. Register r collects
// origin r's chunk, so the result is in origin order; the rank's own
// bundle sits under its own number until only its own chunk is left.
func A2APairwise() Algorithm {
	return schedule{name: "A2A_Pairwise", coll: AllToAll, write: func(spec Spec) comm.Script {
		p := spec.P()
		pow2 := p&(p-1) == 0
		return comm.Script{Regs: p, Rank: func(b *comm.Builder, rank int) {
			b.Barrier()
			b.Swap(rank)
			for t := 1; t < p; t++ {
				b.Iter(t - 1)
				sendTo, recvFrom := rank^t, rank^t
				if !pow2 {
					sendTo, recvFrom = (rank+t)%p, (rank-t+p)%p
				}
				b.SendParts(sendTo, rank, comm.Sel{Off: sendTo, Stride: 1, Count: 1})
				b.Recv(recvFrom, recvFrom)
			}
			b.Take(rank, rank, comm.Sel{Off: rank, Stride: 1, Count: 1})
		}}
	}}
}

// A2AJungSakho returns A2A_JungSakho: the optimal all-to-all for k-ary
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
//
// A rank's p chunks stay in register 0 ordered so that the coordinate of
// the current dimension varies fastest: the chunks a step forwards are
// every k-th from one offset, a selector. During the phase the rank files
// what arrives from ring position q under register 1+q and its own group
// under its own position; concatenating the k groups makes the next
// dimension's coordinate the fastest-varying one, and after the last
// phase the order is by origin.
func A2AJungSakho() Algorithm {
	return schedule{name: "A2A_JungSakho", coll: AllToAll, write: func(spec Spec) comm.Script {
		p := spec.P()
		x, y, z := topology.TorusDims(p)
		var radices []int
		for _, k := range []int{x, y, z} {
			if k > 1 {
				radices = append(radices, k)
			}
		}
		return comm.Script{Regs: 1 + max(x, y, z), Rank: func(b *comm.Builder, rank int) {
			b.Barrier()
			stride, iter := 1, 0
			for d, k := range radices {
				b.Phase(fmt.Sprintf("dim%d(k=%d)", d, k))
				pos, group := (rank/stride)%k, p/k
				for t := 1; t < k; t++ {
					b.Iter(iter)
					iter++
					destPos, srcPos := (pos+t)%k, (pos-t+k)%k
					b.SendParts(rank+(destPos-pos)*stride, 0, comm.Sel{Off: destPos, Stride: k, Count: group})
					// Store-and-forward repack: incoming chunks join the held
					// buffer for the next step, the volume cost the schedule
					// trades for its Σ(k_d−1) message count.
					b.Recv(rank+(srcPos-pos)*stride, 1+srcPos)
					b.Combine(1 + srcPos)
				}
				b.Take(1+pos, 0, comm.Sel{Off: pos, Stride: k, Count: group})
				for q := 0; q < k; q++ {
					b.Take(0, 1+q, comm.Sel{Off: 0, Stride: 1, Count: group})
				}
				stride *= k
			}
		}}
	}}
}
