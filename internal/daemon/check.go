package daemon

import (
	stpbcast "repro"
	"repro/internal/comm"
	"repro/internal/core"
)

// checkOnStack is the most parts of one bundle checkBundles hands to
// Check without allocating: an all-to-all's bundle on a 64-rank machine.
const checkOnStack = 64

// verify checks a served run's bundles (checkBundles) against the
// request it ran: the default payload of req.MsgBytes bytes per source,
// on the instance req names on the leased machine. A simulated run
// moves no bytes, so has none to check.
func (l *Lease) verify(req *BroadcastRequest, res *stpbcast.Result) error {
	if res.Bundles == nil {
		return nil
	}
	spec, err := l.e.specOf(req)
	if err != nil {
		return err
	}
	return checkBundles(core.Collective(req.Collective), spec, req.MsgBytes, res.Bundles)
}

// specKey is what of a normalized request decides its instance on a
// pooled machine.
type specKey struct {
	coll, dist string
	sources    int
}

// specOf is the instance a normalized request runs on the entry's
// machine: the sources its distribution places, every rank for the
// collectives that take none (what Config gives the session for the
// same fields). The entry keeps the last one it resolved, for the next
// request that asks for the same; the lease's lock guards it.
func (e *entry) specOf(req *BroadcastRequest) (core.Spec, error) {
	key := specKey{req.Collective, req.Distribution, req.Sources}
	if e.spec.Sources != nil && e.specFor == key {
		return e.spec, nil
	}
	m := e.m
	spec := core.Spec{Rows: m.Rows, Cols: m.Cols}
	if !core.Collective(req.Collective).Caps().TakesSources {
		spec.Sources = core.AllRanksSources(m.P())
	} else {
		d, err := stpbcast.DistributionByName(req.Distribution)
		if err != nil {
			return core.Spec{}, err
		}
		if spec.Sources, err = d.Sources(m.Rows, m.Cols, req.Sources); err != nil {
			return core.Spec{}, err
		}
	}
	e.spec, e.specFor = spec, key
	return spec, nil
}

// checkBundles verifies every rank's bundle against coll's
// postcondition on spec for the default payload of msgBytes bytes per
// origin, as a cluster worker checks its ranks (core.Collective.Check):
// the first failure names the rank, the origin and, for wrong bytes,
// the first bad one. Each bundle reaches Check as a message built on
// the stack, so bundles that pass cost no allocation.
func checkBundles(coll core.Collective, spec core.Spec, msgBytes int, bundles []map[int][]byte) error {
	sizes := func(int) int { return msgBytes }
	for rank, bundle := range bundles {
		var stack [checkOnStack]comm.Part
		parts := stack[:0]
		for origin, data := range bundle {
			parts = append(parts, comm.Part{Origin: origin, Data: data})
		}
		if err := coll.Check(spec, sizes, rank, comm.Message{Parts: parts}); err != nil {
			return err
		}
	}
	return nil
}
