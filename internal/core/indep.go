package core

import (
	"repro/internal/comm"
)

// Indep1toP returns the uncoordinated approach Section 2 dismisses: every
// source initiates its own one-to-all broadcast, independent of the
// location and number of the other sources, with no synchronization and
// no message combining. Attractive for dynamic broadcasting — no barrier
// needed — but "having the s broadcasting processes take place without
// interaction and coordination leads to poor performance due to arising
// congestion and the large number of messages in the system."
//
// Each source's broadcast is a binomial tree over the linear rank order
// rooted at the source. Every processor participates in all s trees; its
// operations for the k-th tree are issued as soon as its tree-k parent
// message arrives, so the trees overlap freely in the network and fight
// for the same links — the congestion the paper predicts.
func Indep1toP() Algorithm {
	return schedule{name: "Indep_1toP", coll: Broadcast, write: indepScript}
}

// indepScript writes the s trees, register k holding the k-th source's
// message. Deliberately no barrier: sources fire immediately (the paper's
// "does not require synchronization before the broadcasting").
//
// Every processor serves the trees in source order: as root it fires its
// sends immediately; otherwise it receives from its tree parent and
// forwards to its tree children. Serving order must be identical on every
// processor because message matching is FIFO per (sender, receiver) pair —
// a parent that is the same processor in two trees must send in the order
// its child will receive. Across processors the trees still overlap freely
// and fight for links.
func indepScript(spec Spec) comm.Script {
	p := spec.P()
	return comm.Script{Regs: spec.S(), Rank: func(b *comm.Builder, rank int) {
		if k := spec.SourceIndex(rank); k > 0 {
			b.Swap(k)
		}
		for k, root := range spec.Sources {
			b.Iter(k)
			bcastTree(b, p, root, rank, k)
		}
	}}
}
