package core

import (
	"fmt"
	"strconv"

	"repro/internal/comm"
	"repro/internal/topology"
)

// brKPort is Algorithm Br_kport<k>: the k-ported generalization of
// Br_Lin's recursive halving. Where Br_Lin splits every segment in two
// and pairs positions across the halves, Br_kport splits into k+1
// subsegments and exchanges within groups of up to k+1 evenly strided
// positions, so every holder sends to up to k destinations per level —
// traffic a k-ported machine (the paper's multi-channel routers) drives
// concurrently instead of serially. The level count drops from ⌈log₂ p⌉
// to ~⌈log_{k+1} p⌉ at the price of k sends per holder per level: a win
// exactly when the node has k ports. Every engine here, the simulator
// and its cost model included, issues a holder's k sends one after the
// other, so the schedule is run and priced as on a one-ported node.
type brKPort struct{ k int }

// BrKPort returns Algorithm Br_kport<k>, the (k+1)-section broadcast
// for nodes with k outbound ports. k must be at least 1; k=1 is
// pairwise sectioning like Br_Lin (same level count, same odd rule).
func BrKPort(k int) Algorithm {
	if k < 1 {
		panic(fmt.Sprintf("core: BrKPort with %d ports", k))
	}
	return brKPort{k: k}
}

func (a brKPort) Name() string { return "Br_kport" + strconv.Itoa(a.k) }

func (a brKPort) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	c.Barrier()
	mesh := topology.MustMesh2D(spec.Rows, spec.Cols)
	p := spec.P()
	line := make([]int, p)
	holds := make([]bool, p)
	for pos := 0; pos < p; pos++ {
		rank := spec.Indexing.RankToNode(mesh, pos)
		line[pos] = rank
		holds[pos] = spec.IsSource(rank)
	}
	myPos := spec.Indexing.NodeToRank(mesh, c.Rank())
	return runLineK(c, a.k, line, holds, myPos, mine, 0)
}

// runLineK executes the (k+1)-section pattern along one line. Per
// level, for each segment [lo, lo+n) with h = ⌈n/(k+1)⌉:
//
//   - group i (i < h) is the evenly strided positions lo+i+j·h that fall
//     inside the segment; its members exchange bundles all-to-all (every
//     holder sends before anyone receives, so the step is deadlock-free
//     under buffered sends) and all end holding the group union;
//   - the segment then splits into the k+1 subsegments [lo+j·h, …): the
//     member of group i in subsegment j carried the group's union there,
//     so each subsegment collectively holds everything the segment held;
//   - when the last subsegment is short, the groups with no member in it
//     (exactly those with i ≥ n − ⌊(n−1)/h⌋·h) one-way their union from
//     their first member to the segment's last position — the
//     generalization of Br_Lin's odd-middle rule, which this reduces to
//     at k=1.
//
// Distinct positions of a segment always hold origin-disjoint bundles
// (group unions combine disjoint per-position bundles; the straggler
// target never belongs to a straggler group), so merging never
// duplicates a message.
func runLineK(c comm.Comm, k int, line []int, holds []bool, myPos int, bundle comm.Message, iterBase int) comm.Message {
	if len(line) != len(holds) {
		panic(fmt.Sprintf("core: line of %d with %d holder flags", len(line), len(holds)))
	}
	if myPos >= 0 && line[myPos] != c.Rank() {
		panic(fmt.Sprintf("core: rank %d claims line position %d held by %d", c.Rank(), myPos, line[myPos]))
	}
	segs := []segment{{0, len(line)}}
	var members []int
	for it := 0; ; it++ {
		split := false
		for _, g := range segs {
			if g.n > 1 {
				split = true
				break
			}
		}
		if !split {
			return bundle
		}
		comm.MarkIter(c, iterBase+it)
		comm.MarkPhase(c, "ksection")
		next := segs[:0:0]
		for _, g := range segs {
			if g.n <= 1 {
				continue
			}
			h := (g.n + k) / (k + 1)
			for i := 0; i < h; i++ {
				members = members[:0]
				for pos := g.lo + i; pos < g.lo+g.n; pos += h {
					members = append(members, pos)
				}
				bundle = groupStep(c, line, holds, myPos, members, bundle)
			}
			// Straggler groups: no member in the short last subsegment.
			jlast := (g.n - 1) / h
			for i := g.n - jlast*h; i < h; i++ {
				bundle = onewayStep(c, line, holds, myPos, g.lo+i, g.lo+g.n-1, bundle)
			}
			for j := 0; j*h < g.n; j++ {
				next = append(next, segment{g.lo + j*h, min(h, g.n-j*h)})
			}
		}
		segs = next
	}
}

// groupStep performs one all-to-all exchange among the group's member
// positions: every holding member sends its bundle to every other
// member, then receives and merges from every other holder; afterwards
// every member holds the group union. Sends complete before the first
// receive, so the step honours the buffered-Send contract.
func groupStep(c comm.Comm, line []int, holds []bool, myPos int, members []int, bundle comm.Message) comm.Message {
	if len(members) < 2 {
		return bundle
	}
	any := false
	for _, u := range members {
		if holds[u] {
			any = true
			break
		}
	}
	if !any {
		return bundle
	}
	mine := -1
	for idx, u := range members {
		if u == myPos {
			mine = idx
		}
	}
	if mine >= 0 {
		if holds[members[mine]] {
			for _, u := range members {
				if u != myPos {
					c.Send(line[u], bundle)
				}
			}
		}
		for _, u := range members {
			if u == myPos || !holds[u] {
				continue
			}
			m := c.Recv(line[u])
			comm.ChargeCombine(c, m.Len())
			bundle = bundle.Append(m)
		}
	}
	for _, u := range members {
		holds[u] = true
	}
	return bundle
}
