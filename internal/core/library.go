// The library communication operations the paper's baseline algorithms
// are built from: gather-to-root, binomial one-to-all broadcast (the
// halving pattern of Section 2), personalized all-to-all exchange (XOR
// permutations for power-of-two machines, cyclic shifts otherwise,
// following the implementation of Hambrusch/Hameed/Khokhar 1995 that the
// paper cites) and the ring and recursive-doubling all-gathers.
//
// Each is a comm.Script that the schedules of 2-Step, PersAlltoAll,
// Indep_1toP, the all-gathers and the reductions compose. All assume the
// engines' buffered-send semantics (Send never blocks on the receiver),
// which every engine provides.

package core

import (
	"slices"

	"repro/internal/comm"
)

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// gatherScript collects the bundles of the given source ranks at root, on
// register 0. Sources send their bundle; root ends with its own bundle
// (when it is a source) followed by the others', received in the order
// sources lists them, without a self-send. A non-root source ends with an
// empty message, every other processor with what it entered with.
func gatherScript(root int, sources []int) comm.Script {
	return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		isSource := slices.Contains(sources, rank)
		if rank != root {
			if isSource {
				b.Move(root, 0)
			}
			return
		}
		b.Grow(0, len(sources))
		if isSource {
			b.Combine(0)
		}
		for _, s := range sources {
			if s != root {
				b.Merge(s, 0)
			}
		}
	}}
}

// bcastScript broadcasts root's bundle, register 0, to every processor
// along a binomial tree over the linear rank order — the one-to-all
// implementation the paper's 2-Step uses ("views the mesh as a linear
// array and applies the same communication pattern used in Algorithm
// Br_Lin"). Works for any p, any root.
func bcastScript(p, root int) comm.Script {
	return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) { bcastTree(b, p, root, rank, 0) }}
}

// bcastTree writes rank's part of the binomial tree that broadcasts
// register reg from root on a machine of p: receive from the parent, then
// send to the children, farthest first.
func bcastTree(b *comm.Builder, p, root, rank, reg int) {
	rel := (rank - root + p) % p
	real := func(r int) int { return (r + root) % p }
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			b.Recv(real(rel-mask), reg)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			b.Send(real(rel+mask), reg)
		}
	}
}

// alltoallPersonalizedScript delivers every source's bundle to every
// other processor of a machine of p with p−1 pairwise permutations: XOR
// permutations on power-of-two machines, cyclic shifts otherwise. Only
// sources transmit; every processor ends with the concatenation of all
// source bundles (its own included) in rank order — register r holds rank
// r's bundle, so the result is ordered regardless of arrival permutation.
// This is the paper's PersAlltoAll.
func alltoallPersonalizedScript(p int, sources []int) comm.Script {
	isSource := make([]bool, p)
	for _, s := range sources {
		isSource[s] = true
	}
	pow2 := isPow2(p)
	return comm.Script{Regs: p, Rank: func(b *comm.Builder, rank int) {
		b.Swap(rank)
		for t := 1; t < p; t++ {
			b.Iter(t - 1)
			var sendTo, recvFrom int
			if pow2 {
				sendTo = rank ^ t
				recvFrom = rank ^ t
			} else {
				sendTo = (rank + t) % p
				recvFrom = (rank - t + p) % p
			}
			if isSource[rank] {
				b.Send(sendTo, rank)
			}
			if isSource[recvFrom] {
				b.Recv(recvFrom, recvFrom)
			}
		}
	}}
}

// allgatherRingScript is the classic ring all-gather on a machine of p:
// in p−1 steps every processor forwards to its successor the bundle it
// received in the previous step, starting with its own. Register r holds
// rank r's bundle, so every processor ends with the concatenation of all p
// bundles in rank order. Processors without data contribute an empty
// bundle, so the operation doubles as an s-to-p broadcast when only sources
// hold parts. Provided as the modern-MPI ablation of the paper's
// gather+broadcast MPI_AllGather.
func allgatherRingScript(p int) comm.Script {
	return comm.Script{Regs: p, Rank: func(b *comm.Builder, rank int) {
		b.Swap(rank)
		next := (rank + 1) % p
		prev := (rank - 1 + p) % p
		for t := 0; t < p-1; t++ {
			b.Iter(t)
			b.Send(next, (rank-t+p)%p)
			b.Recv(prev, (rank-t-1+p)%p)
		}
	}}
}

// allgatherRecDoublingScript is the recursive-doubling all-gather (the
// classic MPICH algorithm) on a machine of p, on register 0: in round k
// every processor exchanges its accumulated bundle with the partner at
// XOR-distance 2^k, so after ⌈log2 p⌉ rounds every processor holds every
// source bundle. With sparse sources the exchange degenerates to a single
// send (or nothing) whenever one (or both) sides hold no messages yet —
// the holder evolution follows from the known source positions.
//
// On power-of-two machines this is exact recursive doubling; other sizes
// fall back to the ring all-gather (same asymptotic volume, correct for
// every p). The paper's T3D machines are all powers of two.
func allgatherRecDoublingScript(p int, sources []int) comm.Script {
	if !isPow2(p) {
		// Non-power-of-two fallback: the ring all-gather is correct for
		// any p and has the same asymptotic volume.
		return allgatherRingScript(p)
	}
	// before[r] is the number of sources below rank r, so the 2^k-aligned
	// group at base holds before[base+2^k] − before[base] of them; it
	// evolves identically on every processor.
	before := make([]int, p+1)
	for _, s := range sources {
		before[s+1]++
	}
	for r := 0; r < p; r++ {
		before[r+1] += before[r]
	}
	return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		if p == 1 {
			return
		}
		b.Grow(0, len(sources))
		iter := 0
		for dist := 1; dist < p; dist <<= 1 {
			b.Iter(iter)
			iter++
			partner := rank ^ dist
			myBase := rank &^ (dist - 1)
			partnerBase := partner &^ (dist - 1)
			if before[myBase+dist] > before[myBase] {
				b.Send(partner, 0)
			}
			if before[partnerBase+dist] > before[partnerBase] {
				// The 1996-era library packs the received blocks into the
				// accumulated buffer before the next round; charge the copy.
				b.Merge(partner, 0)
			}
		}
	}}
}
