package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/topology"
)

// segment is a contiguous run of line positions in the halving recursion.
type segment struct{ lo, n int }

// lineIters returns the number of halving iterations a line of n
// processors needs: ⌈log2 n⌉.
func lineIters(n int) int {
	it := 0
	for size := n; size > 1; size = (size + 1) / 2 {
		it++
	}
	return it
}

// runLine executes Br_Lin's recursive-halving pattern along one line of
// processors. line[i] is the global rank at line position i; holds[i]
// tells whether position i currently holds messages (every processor
// computes the identical evolution locally, so no probing is needed);
// myPos is the caller's position in the line, or -1 if the caller is not
// on this line (it then returns immediately — but note that every
// processor of the machine is on exactly one line per phase in all
// callers). bundle is the caller's current bundle; iterBase offsets the
// iteration markers so multi-phase algorithms report consecutive
// iterations.
//
// Pattern per level, for each segment [lo, lo+n) with h = ⌈n/2⌉:
//
//   - positions lo+i and lo+i+h (i < n−h) exchange bundles when both hold
//     messages, or perform a single send when only one does (the paper's
//     rule), merging on receipt;
//   - when n is odd, the unpaired middle position lo+h−1 one-way sends its
//     bundle to position lo+n−1, which keeps the second half's collective
//     holdings complete (this is the generalization that makes Br_Lin
//     correct on arbitrary machine sizes; it is also why odd dimensions
//     grow sources faster, the machine-size effect of Sections 4–5);
//   - the segment then splits into [lo, lo+h) and [lo+h, lo+n).
//
// The bundles held by distinct positions of a segment are always
// origin-disjoint (each merge combines bundles from the two disjoint
// halves), so merging never duplicates a message.
func runLine(c comm.Comm, line []int, holds []bool, myPos int, bundle comm.Message, iterBase int) comm.Message {
	if len(line) != len(holds) {
		panic(fmt.Sprintf("core: line of %d with %d holder flags", len(line), len(holds)))
	}
	if myPos >= 0 {
		if line[myPos] != c.Rank() {
			panic(fmt.Sprintf("core: rank %d claims line position %d held by %d", c.Rank(), myPos, line[myPos]))
		}
	}
	// The segments partition the line, so no level has more than
	// len(line) of them: one allocation holds this level's list and the
	// next's, and the two halves swap roles at every level.
	n := len(line)
	buf := make([]segment, 2*n)
	segs, next := append(buf[:0:n], segment{0, n}), buf[n:n]
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
		comm.MarkPhase(c, "halving")
		next = next[:0]
		for _, g := range segs {
			if g.n <= 1 {
				continue
			}
			h := (g.n + 1) / 2
			for i := 0; i < g.n-h; i++ {
				a, b := g.lo+i, g.lo+i+h
				bundle = pairStep(c, line, holds, myPos, a, b, bundle)
			}
			if g.n%2 == 1 {
				bundle = onewayStep(c, line, holds, myPos, g.lo+h-1, g.lo+g.n-1, bundle)
			}
			next = append(next, segment{g.lo, h}, segment{g.lo + h, g.n - h})
		}
		segs, next = next, segs
	}
}

// pairStep performs one pairwise step between line positions a and b and
// updates the holder flags. Both sides send first and receive second, so
// the step is deadlock-free under buffered sends.
func pairStep(c comm.Comm, line []int, holds []bool, myPos, a, b int, bundle comm.Message) comm.Message {
	switch {
	case holds[a] && holds[b]:
		if myPos == a || myPos == b {
			peer := line[a]
			if myPos == a {
				peer = line[b]
			}
			m := comm.Exchange(c, peer, bundle)
			comm.ChargeCombine(c, m.Len())
			bundle = bundle.Append(m)
		}
	case holds[a]:
		if myPos == a {
			c.Send(line[b], bundle)
		}
		if myPos == b {
			m := c.Recv(line[a])
			comm.ChargeCombine(c, m.Len())
			bundle = bundle.Append(m)
		}
	case holds[b]:
		if myPos == b {
			c.Send(line[a], bundle)
		}
		if myPos == a {
			m := c.Recv(line[b])
			comm.ChargeCombine(c, m.Len())
			bundle = bundle.Append(m)
		}
	}
	merged := holds[a] || holds[b]
	holds[a], holds[b] = merged, merged
	return bundle
}

// onewayStep sends position u's bundle to position tgt (if u holds
// messages), merging at tgt.
func onewayStep(c comm.Comm, line []int, holds []bool, myPos, u, tgt int, bundle comm.Message) comm.Message {
	if !holds[u] || u == tgt {
		return bundle
	}
	if myPos == u {
		c.Send(line[tgt], bundle)
	}
	if myPos == tgt {
		m := c.Recv(line[u])
		comm.ChargeCombine(c, m.Len())
		bundle = bundle.Append(m)
	}
	holds[tgt] = true
	return bundle
}

// brLin is Algorithm Br_Lin: recursive halving over the whole machine
// viewed as a linear array (snake-like row-major by default).
type brLin struct{}

// BrLin returns Algorithm Br_Lin.
func BrLin() Algorithm { return brLin{} }

func (brLin) Name() string { return "Br_Lin" }

func (brLin) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
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
	return runLine(c, line, holds, myPos, mine, 0)
}
