package core

import (
	"repro/internal/comm"
)

// indep1toP is the uncoordinated approach Section 2 dismisses: every
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
type indep1toP struct{}

// Indep1toP returns the uncoordinated independent-broadcasts baseline.
func Indep1toP() Algorithm { return indep1toP{} }

func (indep1toP) Name() string { return "Indep_1toP" }

func (indep1toP) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	// Deliberately no barrier: sources fire immediately (the paper's
	// "does not require synchronization before the broadcasting").
	p := c.Size()
	rank := c.Rank()
	out := comm.Message{}.Grow(spec.S())

	// Every processor serves the s trees in source order: as root it
	// fires its sends immediately; otherwise it receives from its tree
	// parent and forwards to its tree children. Serving order must be
	// identical on every processor because message matching is FIFO per
	// (sender, receiver) pair — a parent that is the same processor in
	// two trees must send in the order its child will receive. Across
	// processors the trees still overlap freely and fight for links.
	for k, root := range spec.Sources {
		comm.MarkIter(c, k)
		rel := (rank - root + p) % p
		if rel == 0 {
			top := 1
			for top < p {
				top <<= 1
			}
			forwardFrom(c, p, rank, root, mine, top>>1)
			out = out.Append(mine)
			continue
		}
		mask := 1
		var m comm.Message
		for mask < p {
			if rel&mask != 0 {
				m = c.Recv((rel - mask + root) % p)
				break
			}
			mask <<= 1
		}
		forwardFrom(c, p, rank, root, m, mask>>1)
		out = out.Append(m)
	}
	return out
}

// forwardFrom sends m to this processor's children in the binomial tree
// rooted at root, starting at the given mask level.
func forwardFrom(c comm.Comm, p, rank, root int, m comm.Message, mask int) {
	rel := (rank - root + p) % p
	for ; mask > 0; mask >>= 1 {
		if rel+mask < p {
			c.Send((rel+mask+root)%p, m)
		}
	}
}
