package core

import (
	"repro/internal/comm"
)

// The reduction algorithms reuse the broadcast machinery: contributions
// travel as ordinary bundles, a fold (comm.OpFold) sums them byte-wise as
// they meet, charged through the same combine hook the 1996
// message-combining algorithms use, and the communication skeletons are
// the binomial tree and recursive doubling the broadcast family already
// prices. The root of a rooted reduction is the first source.

// reduceTree writes rank's part of the fold of every contribution at root
// along the binomial tree over relative ranks: root ends with the reduced
// bundle, every other rank empty. Non-sources contribute the empty bundle
// — the identity of the byte-sum — so every processor takes part in the
// tree regardless of the source set. A contribution is folded where it
// meets another; on a machine of one the root folds its own.
func reduceTree(b *comm.Builder, p, root, rank int) {
	if p == 1 {
		b.Fold(-1, 0)
		return
	}
	rel := (rank - root + p) % p
	real := func(r int) int { return (r + root) % p }
	iter := 0
	for mask := 1; mask < p; mask <<= 1 {
		b.Iter(iter)
		iter++
		if rel&mask != 0 {
			b.Move(real(rel-mask), 0)
			return
		}
		if rel+mask < p {
			b.Fold(real(rel+mask), 0)
		}
	}
}

// redBcast is reduce-then-broadcast: the tree fold to root, then the
// binomial one-to-all broadcast of the result.
func redBcast(spec Spec) comm.Script {
	p, root := spec.P(), spec.Sources[0]
	return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		b.Barrier()
		reduceTree(b, p, root, rank)
		bcastTree(b, p, root, rank, 0)
	}}
}

// RedTree returns Red_Tree: the binomial-tree reduction to the root (the
// first source). The mirror image of the one-to-all broadcast of Section
// 2 — the same halving tree walked leaf-to-root with a fold at every
// merge.
func RedTree() Algorithm {
	return schedule{name: "Red_Tree", coll: Reduce, write: func(spec Spec) comm.Script {
		p, root := spec.P(), spec.Sources[0]
		return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
			b.Barrier()
			reduceTree(b, p, root, rank)
		}}
	}}
}

// AllRedRecDouble returns AllRed_RecDouble: recursive-doubling
// all-reduce. In round k every processor exchanges its partial fold with
// the partner at XOR-distance 2^k, so after ⌈log2 p⌉ rounds every
// processor holds the full reduction — the classic butterfly, log-depth
// with no broadcast phase. Power-of-two machines only; other sizes fall
// back to reduce-then-broadcast (same result, one extra log factor of
// latency).
func AllRedRecDouble() Algorithm {
	return schedule{name: "AllRed_RecDouble", coll: AllReduce, write: func(spec Spec) comm.Script {
		p := spec.P()
		if p&(p-1) != 0 {
			return redBcast(spec)
		}
		return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
			b.Barrier()
			if p == 1 {
				b.Fold(-1, 0)
			}
			iter := 0
			for dist := 1; dist < p; dist <<= 1 {
				b.Iter(iter)
				iter++
				b.Send(rank^dist, 0)
				b.Fold(rank^dist, 0)
			}
		}}
	}}
}

// AllRedRedBcast returns AllRed_RedBcast: binomial-tree reduction to the
// root followed by the binomial one-to-all broadcast of the result — the
// composition a 1996-era library would write, correct for every p, twice
// the tree depth of the butterfly.
func AllRedRedBcast() Algorithm {
	return schedule{name: "AllRed_RedBcast", coll: AllReduce, write: redBcast}
}
