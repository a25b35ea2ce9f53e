package core

import (
	"fmt"

	"repro/internal/comm"
)

// The paper's algorithms assume every processor knows the source positions
// and message sizes before broadcasting starts (Section 1: "If this does
// not hold, synchronization and possible communication is needed before
// our algorithms can be used"). WithDiscovery supplies that missing
// phase: a recursive-doubling all-reduce of source flags (one byte per
// processor), after which every processor has derived the same Spec and
// the inner algorithm runs unchanged.
//
// The discovery phase costs ⌈log2 p⌉ rounds of p-byte messages — small
// next to the broadcast itself for all but tiny L, which the
// ablation-discovery experiment quantifies.

// WithDiscovery wraps an algorithm with the source-discovery pre-phase.
// Each processor only needs to know whether it is itself a source (mine
// is non-empty); the exchange is what it would take to learn the global
// source set. spec.Sources must still be passed consistently: the
// schedule is written for it, and every rank checks that its bundle
// agrees with it.
//
// The flag exchange ORs one-hot vectors until every rank holds every
// rank's flag, so the set it would discover is {r : rank r holds a
// message}. That equals the declared set exactly when every rank's own
// flag equals its declared status: the check each rank makes of its own
// bundle before the run (checkDeclared) fails on some rank exactly when
// the exchange would have found another set, and the exchange itself is
// kept — p-byte messages tagged -2 that no operation reads — for what it
// costs.
func WithDiscovery(inner Algorithm) Algorithm {
	return schedule{name: "Discover+" + inner.Name(), coll: Broadcast, declared: true, write: func(spec Spec) comm.Script {
		return then(discoverScript(spec.P()), scriptOf(inner, spec))
	}}
}

// discoverScript is the barrier and the flag exchange: recursive doubling
// on power-of-two machines; otherwise the rounds use ring neighbours at
// doubling distances, which needs ⌈log2 p⌉ rounds of two messages each
// and reaches everyone.
func discoverScript(p int) comm.Script {
	pow2 := p&(p-1) == 0
	return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		b.Barrier()
		for dist := 1; dist < p; dist <<= 1 {
			to, from := rank^dist, rank^dist
			if !pow2 {
				to, from = (rank+dist)%p, (rank-dist+p)%p
			}
			b.Token(to, -2, p)
			b.Drop(from)
		}
	}}
}

// discovers reports whether alg is, or runs, a discovery schedule.
func discovers(alg Algorithm) bool {
	s, ok := alg.(schedule)
	return ok && s.declared
}

// checkDeclared is a discovering rank's safety check: its bundle holds
// parts iff the spec names it a source. A mismatch means the caller's
// spec and payloads disagree.
func checkDeclared(spec Spec, rank int, mine comm.Message) {
	if held := len(mine.Parts) > 0; held != spec.IsSource(rank) {
		panic(fmt.Sprintf("core: rank %d holds a message: %v, but the spec's sources %v say %v — discovery would find another source set",
			rank, held, spec.Sources, !held))
	}
}
