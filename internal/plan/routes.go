package plan

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// routeMaxOps bounds the communication operations of the
// route-extraction replay. Extraction runs the algorithm once on the
// simulator, so the budget only guards against a runaway user-registered
// algorithm; the registry suite stays far under it even at p in the
// hundreds.
const routeMaxOps = 50_000_000

// linkCollector is a sim tracer that records the directed (src, dst)
// pairs the traced run sent messages over. Simulator tracers run inline
// under the scheduler token, so no locking is needed.
type linkCollector struct {
	links map[[2]int]struct{}
}

func (lc *linkCollector) Trace(e obs.Event) {
	if e.Kind == obs.KindSend && e.Peer >= 0 && e.Peer != e.Rank {
		lc.links[[2]int{e.Rank, e.Peer}] = struct{}{}
	}
}

// Routes extracts the directed logical link set the algorithm uses on
// this instance by replaying it once on the deterministic simulator
// with a link-collecting tracer. Because every engine drives the same
// algorithm code over the same spec, the simulated schedule's links are
// exactly the links a live or TCP run will traverse — which makes the
// result a valid sparse connection plan (tcp Options.Links, or
// stpbcast.SessionOptions.Links via RoutesFor).
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
	nw, err := m.NewNetwork()
	if err != nil {
		return nil, err
	}
	lc := &linkCollector{links: make(map[[2]int]struct{})}
	coll := core.CollectiveOf(alg)
	alg = core.Bind(alg, spec)
	_, err = sim.Run(nw, func(pr *sim.Proc) {
		mine := core.InitialLenFor(coll, spec, pr.Rank(), msgLen)
		alg.Run(pr, spec, mine)
	}, sim.Options{Tracer: lc, MaxOps: routeMaxOps})
	if err != nil {
		return nil, fmt.Errorf("plan: route extraction for %s: %w", alg.Name(), err)
	}
	out := make([][2]int, 0, len(lc.links))
	for l := range lc.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out, nil
}
