package plan

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/par"
)

// Default tier parameters.
const (
	// DefaultTopK is the number of analytic front-runners the empirical
	// tier probes. Sized so that, across the Figure-2 grid on the 10x10
	// Paragon and 256-PE T3D reference machines, an algorithm within 10%
	// of the true best always falls inside the probed prefix.
	DefaultTopK = 6
)

// Options configure a Planner.
type Options struct {
	// TopK is the number of analytic candidates refined with probe
	// simulations. 0 means DefaultTopK; negative disables probing
	// entirely (pure analytic selection).
	TopK int
	// Workers is the probe worker-pool size. 0 means the shared pool
	// limit (par.Limit(), GOMAXPROCS unless overridden by -parallel).
	Workers int
	// Candidates restricts the algorithms considered. Empty means every
	// algorithm registered for the request's collective
	// (core.RegistryFor), in the paper's order.
	Candidates []string
	// Cache, when non-nil, short-circuits planning for instances whose
	// canonical key was decided before.
	Cache *Cache
	// MaxProbeOps bounds the communication operations (Send, Recv and
	// Barrier calls, summed over all processors) of each probe
	// simulation; a probe over budget is deterministically disqualified
	// (scored +Inf) rather than measured. 0 means unlimited.
	MaxProbeOps int
}

// Decision is the planner's output for one instance.
type Decision struct {
	// Algorithm is the chosen algorithm's registry name.
	Algorithm string
	// Key is the instance's canonical cache key.
	Key Key
	// Source records which tier decided: "cache", "probe", or
	// "analytic".
	Source string
	// ElapsedMs is the chosen algorithm's probed (or predicted, for
	// analytic-only decisions) time in milliseconds.
	ElapsedMs float64
	// Ranking is the analytic tier's full ranking, fastest predicted
	// first. Empty on a cache hit.
	Ranking []Score
	// Probes holds the empirical tier's measurements, fastest first.
	// Empty on a cache hit or an analytic-only decision.
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

// Candidates returns the candidate algorithm names the planner considers
// for broadcasts. Use CandidatesFor for another collective.
func (pl *Planner) Candidates() []string {
	return pl.CandidatesFor(core.Broadcast)
}

// CandidatesFor returns the candidate algorithm names the planner
// considers for one collective: the configured restriction when set,
// otherwise every registered algorithm of that collective.
func (pl *Planner) CandidatesFor(coll core.Collective) []string {
	if len(pl.opts.Candidates) > 0 {
		return append([]string(nil), pl.opts.Candidates...)
	}
	reg := core.RegistryFor(coll)
	out := make([]string, len(reg))
	for i, a := range reg {
		out[i] = a.Name()
	}
	return out
}

// Decide chooses an algorithm for the instance. The selection is
// deterministic: identical inputs yield the identical decision, cold or
// warm cache — probe timings come from the deterministic simulator, ties
// break by analytic rank, and cache entries store the exact prior choice.
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
			if _, err := core.ByNameFor(coll, e.Algorithm); err == nil {
				return &Decision{
					Algorithm: e.Algorithm,
					Key:       key,
					Source:    "cache",
					ElapsedMs: e.ElapsedMs,
				}, nil
			}
			// The cached algorithm no longer exists (stale registry):
			// fall through and re-plan.
		}
	}

	candidates := pl.CandidatesFor(coll)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("plan: no candidate algorithms for %s", coll)
	}
	ranking := Rank(m, req.Spec, req.MsgLen, candidates)
	dec := &Decision{Key: key, Ranking: ranking}

	k := pl.opts.TopK
	switch {
	case k == 0:
		k = DefaultTopK
	case k < 0:
		k = 0
	}
	if k > len(ranking) {
		k = len(ranking)
	}
	if k == 0 {
		dec.Source = "analytic"
		dec.Algorithm = ranking[0].Algorithm
		dec.ElapsedMs = ranking[0].PredictedMs
	} else {
		names := make([]string, k)
		for i := 0; i < k; i++ {
			names[i] = ranking[i].Algorithm
		}
		workers := pl.opts.Workers
		if workers <= 0 {
			workers = par.Limit()
		}
		probes, err := probeCandidates(ctx, m, req.Spec, req.MsgLen, names, workers, pl.opts.MaxProbeOps)
		if err != nil {
			return nil, err
		}
		// Fastest first; ties keep analytic rank order (stable sort over
		// the deterministic input order).
		sort.SliceStable(probes, func(i, j int) bool { return probes[i].ElapsedMs < probes[j].ElapsedMs })
		if math.IsInf(probes[0].ElapsedMs, 1) {
			return nil, fmt.Errorf("plan: every probe exceeded the operation budget (MaxProbeOps=%d)", pl.opts.MaxProbeOps)
		}
		dec.Source = "probe"
		dec.Algorithm = probes[0].Algorithm
		dec.ElapsedMs = probes[0].ElapsedMs
		dec.Probes = probes
	}

	if pl.opts.Cache != nil {
		if err := pl.opts.Cache.Put(key, Entry{
			Algorithm: dec.Algorithm,
			ElapsedMs: dec.ElapsedMs,
			Source:    dec.Source,
		}); err != nil {
			return nil, err
		}
	}
	return dec, nil
}
