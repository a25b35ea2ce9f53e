package comm

import "slices"

// Facts is what a program communicates, read off its operations: the
// schedules are oblivious, so these are any run's. An operation
// communicates when it has a partner, and belongs to the iteration last
// begun before it — iteration 0 before any. Every iteration begun counts,
// by an operation's Adv or an OpIter, a backward one included.
type Facts struct {
	Iterations int   // the largest iteration marked plus one
	Congestion int   // the most sends+receives of one rank in one iteration
	SendRec    int   // the most sends+receives of one rank
	Active     []int // the ranks that send or receive, per iteration
	// Links holds the directed (rank, peer) pairs of the sends, a rank's
	// own excepted, sorted by rank, then peer, and distinct.
	Links [][2]int
}

// Facts returns the program's facts, walking its operations on the first
// call only: every caller, on any goroutine, shares one Facts and must
// not change it.
func (pg *Program) Facts() *Facts {
	if f := pg.facts.Load(); f != nil {
		return f
	}
	if f := pg.walk(); pg.facts.CompareAndSwap(nil, f) {
		return f
	}
	return pg.facts.Load()
}

func (pg *Program) walk() *Facts {
	f := &Facts{Links: make([][2]int, 0, pg.P())}
	// One rank's sends+receives per iteration, and the ranks it sends to.
	ops, peers := make([]int, 0, 16), make([]int, 0, 16)
	for rank := range pg.P() {
		ops, peers = ops[:0], peers[:0]
		mark, total := -1, 0
		for _, op := range pg.Ops(rank) {
			mark += op.Adv()
			ops = through(ops, mark) // before an OpIter's jump back, too
			if op.Kind == OpIter {
				mark = op.Arg()
				ops = through(ops, mark)
			}
			if peer, sends := pg.partner(op); peer >= 0 {
				it := max(mark, 0)
				ops = through(ops, it)
				ops[it]++
				total++
				if sends && peer != rank {
					peers = append(peers, peer)
				}
			}
		}
		f.SendRec = max(f.SendRec, total)
		f.Active = through(f.Active, len(ops)-1)
		for i, n := range ops {
			f.Congestion = max(f.Congestion, n)
			if n > 0 {
				f.Active[i]++
			}
		}
		slices.Sort(peers)
		for _, q := range slices.Compact(peers) {
			f.Links = append(f.Links, [2]int{rank, q})
		}
	}
	f.Iterations = len(f.Active)
	return f
}

// through returns s extended with zeros to hold index i, if it is one.
func through(s []int, i int) []int {
	if n := i + 1 - len(s); n > 0 {
		s = append(s, make([]int, n)...)
	}
	return s
}

// partner returns the rank an operation sends to (sends true) or receives
// from, and -1 for an operation that moves no message between ranks —
// an OpFold from nobody included: the one op→peer rule.
func (pg *Program) partner(op Op) (peer int, sends bool) {
	switch op.Kind {
	case OpSend, OpMove, OpToken:
		return op.Peer(), true
	case OpSendParts:
		return int(pg.sels[op.arg].to), true
	case OpRecv, OpMerge, OpDrop, OpFold:
		return op.Peer(), false
	}
	return -1, false
}
