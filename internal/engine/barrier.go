package engine

import (
	"fmt"
	"sort"

	"repro/internal/comm"
)

// TokenTag marks the barrier tokens cluster workers' leader ranks
// exchange. The value is reserved: Send rejects algorithm messages
// carrying it, so a token can never be handed to algorithm code nor a
// message swallowed by a barrier, even when both come interleaved from
// one peer. (Algorithm code uses small tags such as the -1 of comm.Sub
// barriers, which are ordinary data.)
const TokenTag = -1 << 31

// LeaderLinks returns the directed links the cross-process level of the
// barrier sends its tokens over: ⌈log2 W⌉ dissemination rounds among the
// W workers' leader ranks, leader i to leader (i+2^j) mod W in round j.
// A worker machine adds them to its planned pairs, so a cluster mesh
// dials them up front whatever else it prefetches.
func LeaderLinks(leaders []int) [][2]int {
	var links [][2]int
	for k := 1; k < len(leaders); k <<= 1 {
		for i, l := range leaders {
			links = append(links, [2]int{l, leaders[(i+k)%len(leaders)]})
		}
	}
	return links
}

// crossBarrier is the cross-process level of Barrier, after the k-lane
// model of processors sharing a node: the last local arriver runs it on
// behalf of the machine's leader rank while every local rank — the
// leader included — is parked, one token out and one in per LeaderLinks
// round. Tokens bypass Send/Recv and their counters. Failures name the
// leader (the caller is usually some other rank).
func (m *Machine) crossBarrier() error {
	ld := m.procs[m.lo]
	r := ld.run
	w, n := sort.SearchInts(m.leaders, m.lo), len(m.leaders)
	for k := 1; k < n; k <<= 1 {
		dst, src := m.leaders[(w+k)%n], m.leaders[(w-k+n)%n]
		ld.stats.BarrierSends++
		// A token has no parts to copy: it goes shared.
		if err := m.tr.Deliver(r, ld.rank, dst, comm.Message{Tag: TokenTag}, true); err != nil {
			return fmt.Errorf("leader rank %d: %w", ld.rank, r.sendErr(dst, err))
		}
		if err := ld.in.popToken(src, r.recvTimeout); err != nil {
			return fmt.Errorf("leader rank %d: token from leader rank %d: %w", ld.rank, src, err)
		}
		ld.stats.BarrierRecvs++
	}
	return nil
}
