// Package stpbcast is a library for scalable s-to-p broadcasting on
// message-passing machines, reproducing Hambrusch, Khokhar and Liu,
// "Scalable S-to-P Broadcasting on Message-Passing MPPs" (ICPP 1996).
//
// In s-to-p broadcasting, s of the p processors each hold a message that
// must reach all p processors. The package provides:
//
//   - the paper's algorithm suite — the library baselines 2-Step and
//     PersAlltoAll, the message-combining algorithms Br_Lin,
//     Br_xy_source and Br_xy_dim, the repositioning algorithms Repos_*,
//     and the partitioning algorithms Part_* — plus ring and
//     recursive-doubling all-gather ablations;
//   - the paper's source distributions (row, column, equal, diagonals,
//     band, cross, square block) and the ideal-distribution generators
//     the repositioning algorithms target;
//   - two execution engines behind one interface: a deterministic
//     discrete-event simulator of the Intel Paragon (2-D mesh, NX/MPI)
//     and Cray T3D (3-D torus, MPI) with contention-aware wormhole
//     routing, and a live goroutine runtime that moves real bytes;
//   - per-run metrics (the paper's congestion / wait / send-rec /
//     av_msg_lgth / av_act_proc parameters) and event traces;
//   - one experiment per table and figure of the paper's evaluation
//     (see Experiments and cmd/stpbench).
//
// # Quick start
//
//	m := stpbcast.NewParagon(10, 10)
//	res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
//		Algorithm:    "Br_xy_source",
//		Distribution: "E",
//		Sources:      30,
//		MsgBytes:     4096,
//	}, stpbcast.RunOptions{})
//	// res.Elapsed is the simulated broadcast time.
//
// Run is the unified one-shot entrypoint for all three engines
// (EngineSim, EngineLive, EngineTCP). For many broadcasts back to back,
// open a persistent Session instead and amortize the engine setup:
//
//	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{})
//	defer s.Close()
//	for i := 0; i < 100; i++ {
//		res, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: 5 * time.Second})
//		// ...
//	}
//
// See examples/ for runnable programs, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-vs-measured results.
package stpbcast

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Machine is a simulated platform: topology, placement, cost model, and
// the logical mesh the algorithms see.
type Machine = machine.Machine

// NewParagon returns an r×c Intel Paragon under the NX library.
func NewParagon(rows, cols int) *Machine { return machine.Paragon(rows, cols) }

// NewT3D returns a p-processor Cray T3D under MPI (3-D torus, fixed
// system-controlled snake placement).
func NewT3D(p int) *Machine { return machine.T3D(p) }

// NewHypercube returns a 2^dim-processor binary hypercube with Paragon
// cost parameters (extension machine for topology ablations).
func NewHypercube(dim int) *Machine { return machine.HypercubeNX(dim) }

// NewMachineByName constructs a machine from its CLI name and requested
// logical mesh: "paragon" (NX), "paragon-mpi" (the Paragon under MPI,
// the paper's measured 2–5% software-overhead loss over NX), "t3d" (rows·cols
// processors on the torus; the T3D picks its own logical factorization)
// or "hypercube" (rows·cols must be a power of two), at most 1 024
// processors in all. It is the single name-to-machine mapping shared by
// the daemon's session-pool keys and the stpctl/stpbench topology flags.
func NewMachineByName(kind string, rows, cols int) (*Machine, error) {
	return machine.ByName(kind, rows, cols)
}

// Algorithm is one collective algorithm (see core for the suite).
type Algorithm = core.Algorithm

// Algorithms returns every implemented broadcast algorithm in the
// paper's order. Use AlgorithmsFor for the other collectives.
func Algorithms() []Algorithm { return core.Registry() }

// AlgorithmByName returns the algorithm with the paper's name
// ("Br_Lin", "Repos_xy_source", ...), searching every collective's
// entries. Prefer AlgorithmByNameFor when the intended collective is
// known — it rejects a name that belongs to a different collective.
func AlgorithmByName(name string) (Algorithm, error) { return core.ByName(name) }

// Collective names one collective communication pattern. Broadcast is
// the paper's s-to-p problem; the others are the modern extensions
// built on the same machinery. The zero value ("") means Broadcast.
type Collective = core.Collective

// The implemented collectives (Config.Collective values).
const (
	// CollectiveBroadcast: s sources each hold a message that must reach
	// all p processors (the paper's problem, and the default).
	CollectiveBroadcast = core.Broadcast
	// CollectiveReduce folds the sources' contributions into one bundle
	// at the root (the first source) under the byte-wise sum mod 256.
	CollectiveReduce = core.Reduce
	// CollectiveAllReduce is Reduce delivered to every processor.
	CollectiveAllReduce = core.AllReduce
	// CollectiveScatter splits the root's p per-destination chunks so
	// that rank r ends with exactly chunk r.
	CollectiveScatter = core.Scatter
	// CollectiveAllGather concatenates every rank's contribution on
	// every rank.
	CollectiveAllGather = core.AllGather
	// CollectiveAllToAll is the personalized exchange: every rank holds
	// p chunks, one per destination, and ends with the p addressed to it.
	CollectiveAllToAll = core.AllToAll
)

// ReducedOrigin is the Bundles key (and part origin) of a reduction
// result: CollectiveReduce and CollectiveAllReduce fold every
// contribution into one part with this origin, which can never collide
// with a rank.
const ReducedOrigin = core.ReducedOrigin

// Collectives returns every implemented collective, Broadcast first.
func Collectives() []Collective { return core.Collectives() }

// ParseCollective maps a (case-insensitive) collective name to its
// canonical value; the empty string means CollectiveBroadcast.
func ParseCollective(name string) (Collective, error) { return core.ParseCollective(name) }

// AlgorithmsFor returns the registered algorithms implementing one
// collective, in registration order.
func AlgorithmsFor(coll Collective) []Algorithm { return core.RegistryFor(coll) }

// AlgorithmByNameFor returns the named algorithm if it implements the
// given collective, and a diagnostic naming the algorithm's actual
// collective otherwise.
func AlgorithmByNameFor(coll Collective, name string) (Algorithm, error) {
	return core.ByNameFor(coll, name)
}

// Distribution places source processors on the logical mesh.
type Distribution = dist.Distribution

// Distributions returns the paper's eight named distributions.
func Distributions() []Distribution { return dist.All() }

// DistributionByName returns a distribution by the paper's notation
// ("R", "C", "E", "Dr", "Dl", "B", "Cr", "Sq").
func DistributionByName(name string) (Distribution, error) { return dist.ByName(name) }

// Params are the paper's per-run characteristic parameters (Figure 2).
type Params = metrics.Params

// LinkStats describes one directed physical link's accumulated load.
type LinkStats = network.LinkStats

// AutoAlgorithm, used as Config.Algorithm, lets the planner pick the
// algorithm: Run and Session.Run then call Plan and run its choice. See
// Plan for the selection procedure.
const AutoAlgorithm = "Auto"

// Config selects one collective instance.
type Config struct {
	// Collective is the communication pattern to run
	// (CollectiveBroadcast, CollectiveAllReduce, ...). The zero value
	// means CollectiveBroadcast, so configurations written before the
	// collective axis existed keep their meaning. Each collective
	// constrains the remaining fields by its capability row (see
	// Validate): the sourceless collectives (AllGather, AllToAll) reject
	// any source placement, Scatter takes at most one root, and only
	// Broadcast supports MsgBytesFor.
	Collective Collective
	// Algorithm is the registry name of the algorithm ("Br_xy_source",
	// "AllRed_RecDouble", ...), or AutoAlgorithm — the meaning of the
	// empty string too — to let the planner choose among the
	// Collective's entries. A name that belongs to a different
	// collective is rejected with a diagnostic.
	Algorithm string
	// Distribution is the paper name of the source distribution ("E"),
	// ignored when Sources lists explicit ranks. Only meaningful for
	// collectives that take a source set (Broadcast, Reduce, AllReduce,
	// Scatter); for Reduce/AllReduce an empty placement means every rank
	// contributes, and for Scatter it means root 0.
	Distribution string
	// Sources is the number of source processors, 1 ≤ s ≤ p.
	Sources int
	// SourceRanks optionally pins the exact source ranks (row-major);
	// when set, Distribution and Sources are ignored. The slice need not
	// be sorted (a sorted copy is taken); duplicate or out-of-range ranks
	// are reported as errors.
	SourceRanks []int
	// MsgBytes is the per-source message length L — for the chunked
	// collectives (Scatter, AllToAll) the per-destination chunk length,
	// so a payload supplies p·MsgBytes bytes.
	MsgBytes int
	// RowMajor switches Br_Lin's linear order from the default
	// snake-like row-major to plain row-major (ablation).
	RowMajor bool
	// MsgBytesFor, when non-nil, gives each source its own message
	// length, overriding MsgBytes (the paper's variable-length
	// experiment). It is only called for source ranks; a negative return
	// is clamped to a zero-length message. Broadcast only.
	MsgBytesFor func(rank int) int
}

// collective returns the canonical collective the config names. It
// assumes Validate passed (every entrypoint validates first); an
// unparseable value degrades to Broadcast rather than panicking.
func (c Config) collective() Collective {
	coll, err := core.ParseCollective(string(c.Collective))
	if err != nil {
		return core.Broadcast
	}
	return coll
}

// Validate checks the machine-independent configuration invariants and
// reports every violation at once: the returned error joins one entry
// per problem (errors.Join), each naming the offending Config field, so
// a caller sees the full repair list rather than the first failure.
// Beyond the non-negative message length, the config must respect its
// collective's capability row — the sourceless collectives (AllGather,
// AllToAll) take no Distribution/Sources/SourceRanks, the single-root
// collectives (Scatter) take at most one source, and MsgBytesFor is
// broadcast-only. Machine-dependent checks (distribution names, source
// counts and ranks) surface when the config is resolved against a
// machine at run time. Every entrypoint — Plan, Run and Session.Run —
// calls Validate exactly once.
func (c Config) Validate() error {
	var errs []error
	coll, collErr := core.ParseCollective(string(c.Collective))
	if collErr != nil {
		errs = append(errs, fmt.Errorf("stpbcast: Config.Collective: %w", collErr))
	}
	if c.MsgBytes < 0 {
		errs = append(errs, fmt.Errorf("stpbcast: Config.MsgBytes: negative message length %d", c.MsgBytes))
	}
	if collErr == nil {
		caps := coll.Caps()
		if !caps.TakesSources {
			if c.Distribution != "" {
				errs = append(errs, fmt.Errorf("stpbcast: Config.Distribution: %s takes no source placement (every rank contributes); leave it unset", coll))
			}
			if c.Sources != 0 {
				errs = append(errs, fmt.Errorf("stpbcast: Config.Sources: %s takes no source count (every rank contributes); leave it unset", coll))
			}
			if c.SourceRanks != nil {
				errs = append(errs, fmt.Errorf("stpbcast: Config.SourceRanks: %s takes no source ranks (every rank contributes); leave them unset", coll))
			}
		}
		if caps.SingleSource {
			if c.Sources > 1 {
				errs = append(errs, fmt.Errorf("stpbcast: Config.Sources: %s has a single root, got %d sources", coll, c.Sources))
			}
			if len(c.SourceRanks) > 1 {
				errs = append(errs, fmt.Errorf("stpbcast: Config.SourceRanks: %s has a single root, got %d ranks", coll, len(c.SourceRanks)))
			}
		}
		if c.MsgBytesFor != nil && coll != core.Broadcast {
			errs = append(errs, fmt.Errorf("stpbcast: Config.MsgBytesFor: per-source message lengths are broadcast-only, not supported by %s", coll))
		}
	}
	return errors.Join(errs...)
}

// spec resolves the configuration against a machine. The sourceless
// collectives synthesize the every-rank source list; Reduce/AllReduce
// default to every rank contributing and Scatter to root 0 when no
// placement is given.
func (c Config) spec(m *Machine) (core.Spec, error) {
	coll := c.collective()
	caps := coll.Caps()
	var sources []int
	switch {
	case !caps.TakesSources:
		sources = core.AllRanksSources(m.P())
	case c.SourceRanks != nil:
		// Sort a copy so callers may list ranks in any order; duplicates
		// and out-of-range ranks then surface as Validate errors.
		sources = append([]int(nil), c.SourceRanks...)
		sort.Ints(sources)
	case c.Distribution == "" && c.Sources == 0 && coll != core.Broadcast:
		if caps.SingleSource {
			sources = []int{0}
		} else {
			sources = core.AllRanksSources(m.P())
		}
	default:
		d, err := dist.ByName(c.Distribution)
		if err != nil {
			return core.Spec{}, err
		}
		sources, err = d.Sources(m.Rows, m.Cols, c.Sources)
		if err != nil {
			return core.Spec{}, err
		}
	}
	ix := topology.SnakeRowMajor
	if c.RowMajor {
		ix = topology.RowMajor
	}
	spec := core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: sources, Indexing: ix}
	if err := spec.Validate(m.P()); err != nil {
		return core.Spec{}, err
	}
	return spec, nil
}

// PlanDecision is the planner's output: the chosen algorithm, the tier
// that chose it, and the supporting probe timings (and, for Broadcast,
// the analytic ranking).
type PlanDecision = plan.Decision

// defaultPlanner backs AutoAlgorithm and Plan: probe simulations of the
// front-runners (of a broadcast's analytic ranking, or a smaller
// collective's whole registry), and a process-wide in-memory plan cache
// so repeated Auto runs of the same instance skip the probes.
var defaultPlanner = plan.New(plan.Options{Cache: plan.NewMemCache(0)})

// Plan selects the fastest algorithm for the collective instance
// described by cfg (cfg.Algorithm is ignored). For Broadcast it ranks
// the registered algorithms with the analytic cost model and refines the
// front-runners with deterministic probe simulations; every other
// collective has few enough entries that all of them are probed, ties
// going to registry order. It caches the decision in memory: identical
// inputs yield the identical plan, and a warm cache answers without
// probing. For variable-length runs (MsgBytesFor) the planner prices the
// longest source message.
func Plan(m *Machine, cfg Config) (*PlanDecision, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := cfg.spec(m)
	if err != nil {
		return nil, err
	}
	return planFor(m, cfg, spec)
}

// planFor assumes cfg has already passed Validate (every entrypoint
// validates once before resolving).
func planFor(m *Machine, cfg Config, spec core.Spec) (*PlanDecision, error) {
	msgLen := cfg.MsgBytes
	distName := ""
	if cfg.SourceRanks == nil {
		distName = cfg.Distribution
	}
	if cfg.MsgBytesFor != nil {
		// Variable lengths: plan for the longest message, the term that
		// dominates every algorithm's cost.
		msgLen = 0
		distName = "" // per-source lengths make the named-dist key too coarse
		for _, src := range spec.Sources {
			if n := cfg.MsgBytesFor(src); n > msgLen {
				msgLen = n
			}
		}
	}
	return defaultPlanner.Decide(context.Background(), m, plan.Request{
		Spec:       spec,
		Collective: cfg.collective(),
		MsgLen:     msgLen,
		DistName:   distName,
	})
}

// resolve resolves cfg against m: the instance (Config.spec), then the
// algorithm that runs it. An override (RunOptions.Algorithm) must
// implement the config's collective; otherwise cfg.Algorithm names a
// registry entry of that collective, or AutoAlgorithm (or the empty
// string — the zero Config plans, like the zero Collective broadcasts)
// asks the planner. A name or override of a different collective is
// rejected with a diagnostic naming both. It assumes cfg passed
// Validate.
func resolve(m *Machine, cfg Config, override Algorithm) (core.Spec, Algorithm, error) {
	spec, err := cfg.spec(m)
	if err != nil {
		return core.Spec{}, nil, err
	}
	coll := cfg.collective()
	if override != nil {
		if got := core.CollectiveOf(override); got != coll {
			return core.Spec{}, nil, fmt.Errorf("stpbcast: algorithm %s implements %s, but Config.Collective is %s", override.Name(), got, coll)
		}
		return spec, override, nil
	}
	name := cfg.Algorithm
	if name == AutoAlgorithm || name == "" {
		dec, err := planFor(m, cfg, spec)
		if err != nil {
			return core.Spec{}, nil, err
		}
		name = dec.Algorithm
	}
	alg, err := core.ByNameFor(coll, name)
	if err != nil {
		return core.Spec{}, nil, err
	}
	return spec, alg, nil
}

// TraceRecorder is the concurrency-safe event recorder behind
// RunOptions.Trace and the results' Trace fields: it retains the
// engine's unified event stream (every send, recv, wait, barrier and
// injected fault) and exports it via WriteJSON/WriteChrome/Summary. Use
// NewTraceRecorder to build one — the tracing API is fully usable
// through these public names.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder retaining at most cap events
// (0 keeps all; past the cap, events are counted as Dropped).
func NewTraceRecorder(cap int) *TraceRecorder { return trace.NewRecorder(cap) }

// TraceEvent is one recorded engine event (see TraceRecorder.Trace and
// the export helpers).
type TraceEvent = obs.Event

// obsTracer is the engine-facing tracer interface (internal alias so the
// session plumbing can pass a typed nil).
type obsTracer = obs.Tracer

// FaultPlan describes a deterministic fault schedule for chaos runs:
// per-link drop/delay/duplicate/corrupt probabilities decided by Seed,
// explicit targeted link faults, and rank kills. See internal/faults
// for the full semantics; the schedule is a pure function of the plan,
// so a failing seed replays exactly.
type FaultPlan = faults.Plan

// Fault is one explicit link fault of a FaultPlan.
type Fault = faults.Fault

// FaultKill schedules the death of one rank at a given operation index.
type FaultKill = faults.KillAt

// FaultEvent records one injected fault.
type FaultEvent = faults.Event

// Fault kinds for FaultPlan.Faults entries.
const (
	FaultDrop      = faults.Drop
	FaultDelay     = faults.Delay
	FaultDuplicate = faults.Duplicate
	FaultCorrupt   = faults.Corrupt
)

// RunOptions configure one broadcast run through the Run and
// Session.Run entrypoints. The zero value means: the algorithm named by
// Config, synthesized payloads, no deadlines, no cancellation, no fault
// injection, no tracing.
type RunOptions struct {
	// Context, when non-nil, cancels the run.
	Context context.Context
	// RunTimeout bounds the whole run; RecvTimeout T bounds any single
	// blocking receive or barrier wait, which expires within [T, 1.25 T).
	// Either converts a hung or dead rank into a returned error naming
	// the blocked rank and peer. Ignored by EngineSim (the simulator
	// cannot hang).
	RunTimeout  time.Duration
	RecvTimeout time.Duration
	// Algorithm, when non-nil, overrides Config.Algorithm with an
	// explicit Algorithm value — for parameterized algorithms such as
	// core.BrDims, core.ReposTo or core.WithDiscovery that have no
	// registry name. EngineSim simulates the value's program: a value
	// from outside the package is compiled by running it once on a
	// communicator that carries nothing, so one that wraps an algorithm
	// of the package and runs it on the communicator it is given is
	// simulated as that algorithm, and one that communicates by itself
	// is rejected with an error naming it.
	Algorithm Algorithm
	// Payload, when non-nil, supplies each source rank's message bytes
	// on the real-byte engines (it is only called for source ranks).
	// When nil, each source sends Config.MsgBytes (or MsgBytesFor)
	// bytes of its rank value — under Scatter and AllToAll p chunks of
	// MsgBytes bytes, chunk d filled with byte(rank+131·d). Ignored by
	// EngineSim, which prices lengths only. The run reads the returned
	// buffers without copying them, and Result.Bundles may share them,
	// so they must not change until the caller is done with the result.
	Payload func(rank int) []byte
	// Faults, when non-nil, injects the plan's faults into the run
	// (real-byte engines only; EngineSim rejects fault plans). Set
	// RecvTimeout (or RunTimeout) alongside plans that drop or kill, so
	// induced hangs abort with a diagnostic instead of blocking
	// forever.
	Faults *FaultPlan
	// Trace, when non-nil, records the engine's unified event stream —
	// every send, recv, wait and barrier, plus any injected faults —
	// into the recorder (see NewTraceRecorder). The recorder is
	// concurrency-safe, so one recorder sees all ranks. Leave nil for
	// zero tracing overhead.
	Trace *TraceRecorder
}

// Experiment regenerates one table or figure of the paper (see
// cmd/stpbench).
type Experiment = bench.Experiment

// Series is the data behind one regenerated figure.
type Series = bench.Series

// Experiments returns every defined experiment, one per paper table and
// figure plus the ablations.
func Experiments() []Experiment { return bench.Experiments() }

// ExperimentByID returns the experiment with the given figure id ("fig3").
func ExperimentByID(id string) (Experiment, error) { return bench.ByID(id) }

// SetParallelism caps how many experiment cells (and planner probes) run
// concurrently across the process — the worker pool behind Experiments,
// the sweep CLIs' -parallel flag, and Plan's probe stage. n <= 0 restores
// the default (GOMAXPROCS). It returns the previous limit. Figure output
// is byte-identical at every setting; only wall-clock time changes.
func SetParallelism(n int) int { return par.SetLimit(n) }
