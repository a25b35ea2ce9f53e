package plan

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// routeMaxOps bounds the communication operations of the traced run that
// extracts the routes of an algorithm whose body is code: the budget only
// guards against a runaway user-registered algorithm; the registry suite
// stays far under it even at p in the hundreds.
const routeMaxOps = 50_000_000

// linkSet is a set of directed (src, dst) pairs.
type linkSet map[[2]int]struct{}

// add records a message from rank to peer, unless it stays on its rank.
func (ls linkSet) add(rank, peer int) {
	if peer != rank {
		ls[[2]int{rank, peer}] = struct{}{}
	}
}

// Trace makes a linkSet a sim tracer that records the pairs the traced run
// sent messages over. Simulator tracers run inline under the scheduler
// token, so no locking is needed.
func (ls linkSet) Trace(e obs.Event) {
	if e.Kind == obs.KindSend && e.Peer >= 0 {
		ls.add(e.Rank, e.Peer)
	}
}

// Routes extracts the directed logical link set the algorithm uses on
// this instance: the (rank, peer) pairs of the send operations of its
// program. Every engine executes that program rank by rank, so these are
// exactly the links a live or TCP run will traverse — which makes the
// result a valid sparse connection plan (tcp Options.Links, or
// stpbcast.SessionOptions.Links via RoutesFor). An algorithm whose body is
// code has no program to read; it is run once on the simulator under a
// link-collecting tracer instead, the engines driving the same code over
// the same spec.
//
// Barrier contributes no links: ranks that share a process synchronise
// in memory, and the few links a multi-process mesh needs between its
// workers' leader ranks depend on the partition, not on the schedule —
// the cluster coordinator adds them (engine.LeaderLinks).
//
// The returned pairs are deduplicated and sorted. They are directed;
// the TCP engine collapses each unordered pair onto one shared
// connection, so the connection count of the plan is at most the pair
// count here.
func Routes(m *machine.Machine, alg core.Algorithm, spec core.Spec, msgLen int) ([][2]int, error) {
	links := linkSet{}
	if prog := m.Program(alg, spec); prog != nil {
		programLinks(prog, links)
	} else if err := tracedLinks(m, alg, spec, msgLen, links); err != nil {
		return nil, fmt.Errorf("plan: route extraction for %s: %w", alg.Name(), err)
	}
	out := make([][2]int, 0, len(links))
	for l := range links {
		out = append(out, l)
	}
	slices.SortFunc(out, compareLinks)
	return out, nil
}

// compareLinks orders links by source, then by destination.
func compareLinks(a, b [2]int) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

// programLinks adds the (rank, peer) pair of every send in prog.
func programLinks(prog *comm.Program, links linkSet) {
	for rank := 0; rank < prog.P(); rank++ {
		for _, op := range prog.Ops(rank) {
			switch op.Kind {
			case comm.OpSend, comm.OpMove, comm.OpToken:
				links.add(rank, op.Peer())
			}
		}
	}
}

// tracedLinks adds the (rank, peer) pair of every send of a simulated run.
func tracedLinks(m *machine.Machine, alg core.Algorithm, spec core.Spec, msgLen int, links linkSet) error {
	_, _, err := m.RunSim(alg, spec, machine.Uniform(msgLen), sim.Options{Tracer: links, MaxOps: routeMaxOps})
	return err
}
