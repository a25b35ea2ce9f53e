package plan

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/machine"
)

// Routes extracts the directed logical link set the algorithm uses on
// this instance: the (rank, peer) pairs of the send operations of its
// program (comm.Facts' Links). Every engine executes that program rank
// by rank, so these are exactly the links a live or TCP run will
// traverse — which makes the result a prefetch plan that leaves a run
// nothing to dial (tcp Options.Links, or stpbcast.SessionOptions.Links
// via RoutesFor). An algorithm without a program here (machine.Program:
// a value that wraps no algorithm of internal/core, a spec that does not
// bind or fit the machine) has no routes. msgLen is not read: the schedules are
// oblivious, their links a function of the spec.
//
// Barrier contributes no links: ranks that share a process synchronise
// in memory, and the few links a multi-process mesh needs between its
// workers' leader ranks depend on the partition, not on the schedule —
// every worker machine plans them itself (engine.LeaderLinks).
//
// The returned pairs are deduplicated and sorted. They are directed;
// the TCP engine collapses each unordered pair onto one shared
// connection, so the connection count of the plan is at most the pair
// count here.
func Routes(m *machine.Machine, alg core.Algorithm, spec core.Spec, msgLen int) ([][2]int, error) {
	prog, err := m.Program(alg, spec)
	if err != nil {
		return nil, fmt.Errorf("plan: route extraction for %s on %s: %w", alg.Name(), m.Name, err)
	}
	return slices.Clone(prog.Facts().Links), nil
}
