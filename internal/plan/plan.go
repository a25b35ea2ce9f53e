package plan

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
)

// topK is the number of analytic front-runners the empirical tier
// probes. Sized so that, across the Figure-2 grid on the 10x10 Paragon
// and 256-PE T3D reference machines, an algorithm within 10% of the true
// best always falls inside the probed prefix.
const topK = 6

// Options configure a Planner.
type Options struct {
	// Cache, when non-nil, short-circuits planning for instances whose
	// canonical key was decided before.
	Cache *Cache
}

// Decision is the planner's output for one instance.
type Decision struct {
	// Algorithm is the chosen algorithm's registry name.
	Algorithm string
	// Key is the instance's canonical cache key.
	Key Key
	// Source records which tier decided: "cache" or "probe".
	Source string
	// ElapsedMs is the chosen algorithm's probed time in milliseconds.
	ElapsedMs float64
	// Ranking is the analytic tier's full Broadcast ranking, fastest
	// predicted first. Empty on a cache hit and for other collectives.
	Ranking []Score
	// Probes holds the empirical tier's measurements, fastest first.
	// Empty on a cache hit.
	Probes []ProbeResult
}

// Request describes one planning instance.
type Request struct {
	// Collective is the pattern being planned. The zero value means
	// Broadcast, so pre-collective requests keep their meaning.
	Collective core.Collective
	// Spec is the validated collective instance (mesh, sources).
	Spec core.Spec
	// MsgLen is the per-source (or, for chunked collectives, per-chunk)
	// message length L in bytes.
	MsgLen int
	// DistName is the paper name of the distribution that produced the
	// sources ("E"), or "" when the ranks were pinned explicitly; it
	// only affects the cache key.
	DistName string
}

// Planner selects broadcasting algorithms. The zero value is not usable;
// construct with New. A Planner is safe for concurrent use.
type Planner struct {
	opts Options
}

// New returns a Planner with the given options.
func New(opts Options) *Planner { return &Planner{opts: opts} }

// CandidatesFor returns the candidate algorithm names the planner
// considers for one collective: every registered algorithm of that
// collective, in the paper's order.
func (pl *Planner) CandidatesFor(coll core.Collective) []string {
	reg := core.RegistryFor(coll)
	out := make([]string, len(reg))
	for i, a := range reg {
		out[i] = a.Name()
	}
	return out
}

// Decide chooses an algorithm for the instance: the least probed time of
// the topK analytic front-runners when the collective has more entries
// (Broadcast), of its whole registry otherwise. The selection is
// deterministic: identical inputs yield the identical decision, cold or
// warm cache — probe timings come from the deterministic simulator, ties
// break by probe order (analytic rank, else registry order), and cache
// entries store the exact prior choice.
func (pl *Planner) Decide(ctx context.Context, m *machine.Machine, req Request) (*Decision, error) {
	if err := req.Spec.Validate(m.P()); err != nil {
		return nil, err
	}
	if req.MsgLen < 0 {
		return nil, fmt.Errorf("plan: negative message length %d", req.MsgLen)
	}
	coll := req.Collective
	if coll == "" {
		coll = core.Broadcast
	}
	key := NewKey(m, coll, req.Spec, req.MsgLen, req.DistName)
	if pl.opts.Cache != nil {
		if e, ok := pl.opts.Cache.Get(key); ok {
			return &Decision{
				Algorithm: e.Algorithm,
				Key:       key,
				Source:    "cache",
				ElapsedMs: e.ElapsedMs,
			}, nil
		}
	}

	candidates := pl.CandidatesFor(coll)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("plan: no candidate algorithms for %s", coll)
	}
	var ranking []Score
	if len(candidates) > topK {
		ranking = Rank(m, req.Spec, req.MsgLen, candidates)
		candidates = candidates[:topK]
		for i := range candidates {
			candidates[i] = ranking[i].Algorithm
		}
	}
	probes, err := probeCandidates(ctx, m, req.Spec, req.MsgLen, candidates)
	if err != nil {
		return nil, err
	}
	// Fastest first; ties keep probe order (stable sort over the
	// deterministic input order).
	sort.SliceStable(probes, func(i, j int) bool { return probes[i].ElapsedMs < probes[j].ElapsedMs })
	dec := &Decision{
		Algorithm: probes[0].Algorithm,
		Key:       key,
		Source:    "probe",
		ElapsedMs: probes[0].ElapsedMs,
		Ranking:   ranking,
		Probes:    probes,
	}

	if pl.opts.Cache != nil {
		pl.opts.Cache.Put(key, Entry{Algorithm: dec.Algorithm, ElapsedMs: dec.ElapsedMs})
	}
	return dec, nil
}
