package core

import (
	"repro/internal/comm"
)

// TwoStep returns Algorithm 2-Step (the NX baseline; the paper's
// MPI_AllGather is the same pattern run under the MPI cost profile): an
// s-to-one gather at processor 0 followed by a one-to-all broadcast of the
// combined bundle along the binomial halving tree. The gather concentrates
// all traffic at P0 — the congestion hot spot the paper blames for its
// poor Paragon performance.
func TwoStep() Algorithm {
	return schedule{name: "2-Step", coll: Broadcast, write: func(spec Spec) comm.Script {
		gather, bcast := gatherScript(0, spec.Sources), bcastScript(spec.P(), 0)
		return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
			b.Barrier()
			b.Iter(0)
			b.Phase("gather")
			gather.Rank(b, rank)
			b.Iter(1)
			b.Phase("broadcast")
			bcast.Rank(b, rank)
		}}
	}}
}

// PersAlltoAll returns Algorithm PersAlltoAll (the paper's MPI_Alltoall is
// the same pattern run under the MPI cost profile): every source delivers
// its message individually to every processor through p−1 pairwise
// permutations. No combining, no waiting on intermediate hops — but s·(p−1)
// messages, which saturates the Paragon's mesh and wins on the T3D's
// bandwidth-rich torus.
func PersAlltoAll() Algorithm {
	return schedule{name: "PersAlltoAll", coll: Broadcast, write: func(spec Spec) comm.Script {
		return then(barrier, alltoallPersonalizedScript(spec.P(), spec.Sources))
	}}
}

// allGatherRing is the ring all-gather over all p processors under a
// registry name: p−1 neighbour steps, every processor forwarding what it
// received in the step before, empty bundles for processors without data.
func allGatherRing(name string, coll Collective) Algorithm {
	return schedule{name: name, coll: coll, write: func(spec Spec) comm.Script {
		return then(barrier, allgatherRingScript(spec.P()))
	}}
}

// allGatherRecDouble is the recursive-doubling all-gather under a registry
// name: log-depth on power-of-two machines, the ring otherwise.
func allGatherRecDouble(name string, coll Collective) Algorithm {
	return schedule{name: name, coll: coll, write: func(spec Spec) comm.Script {
		return then(barrier, allgatherRecDoublingScript(spec.P(), spec.Sources))
	}}
}

// RingAllGather returns the ring all-gather as an s-to-p broadcast, where
// only the sources hold parts. This is how a modern MPI library would
// serve s-to-p broadcasting through MPI_Allgatherv; it is included as an
// ablation beyond the paper's algorithm set.
func RingAllGather() Algorithm { return allGatherRing("Ring_AllGather", Broadcast) }

// RDAllGather returns the recursive-doubling all-gather as an s-to-p
// broadcast, the algorithm inside MPICH's MPI_Allgatherv. The paper's
// measured T3D MPI_AllGather curves (distribution sensitivity with equal
// best, more-sources-faster at fixed volume, convergence toward Alltoall
// as s→p) match this collective rather than the gather+broadcast the
// paper's text describes; the T3D experiments run both and EXPERIMENTS.md
// discusses the discrepancy.
func RDAllGather() Algorithm { return allGatherRecDouble("RD_AllGather", Broadcast) }
