package stpbcast

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Engine selects the execution engine behind the unified Run API.
type Engine int

const (
	// EngineSim is the deterministic discrete-event simulator: virtual
	// time, contention-aware routing, no payload bytes moved.
	EngineSim Engine = iota
	// EngineLive is the goroutine runtime: real payload bytes through
	// in-process mailboxes, wall-clock timing.
	EngineLive
	// EngineTCP is the distributed-transport engine: real payload bytes
	// as length-prefixed frames over loopback TCP sockets, one per pair
	// of ranks the schedule uses.
	EngineTCP
)

// String returns the engine's CLI name ("sim", "live", "tcp").
func (e Engine) String() string {
	switch e {
	case EngineSim:
		return "sim"
	case EngineLive:
		return "live"
	case EngineTCP:
		return "tcp"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps a CLI name ("sim", "live", "tcp") to its Engine.
func ParseEngine(name string) (Engine, error) {
	switch strings.ToLower(name) {
	case "sim":
		return EngineSim, nil
	case "live":
		return EngineLive, nil
	case "tcp":
		return EngineTCP, nil
	}
	return 0, fmt.Errorf("stpbcast: unknown engine %q (want sim, live or tcp)", name)
}

// SessionOptions configure engine setup for Open. The zero value uses
// the defaults.
type SessionOptions struct {
	// Context, when non-nil, cancels engine setup (the TCP engine's dial
	// backoff waits) and later mesh rebuilds started by Session.Run calls
	// that pass no context of their own.
	Context context.Context
	// Links is a prefetch for the TCP engine: Open establishes one
	// connection per distinct unordered pair of the listed logical
	// links. Whatever the plan, each Run first dials the pairs its
	// schedule uses that the mesh lacks (they stay open for later runs),
	// so a session only ever holds pairs it was given or has used — the
	// algorithm's ~p·log p links, never the p² mesh. nil (or empty)
	// prefetches nothing, and the first run of each configuration pays
	// for its own dials; RoutesFor extracts the plan that moves that cost
	// into Open. Ignored by the other engines.
	Links [][2]int
	// Cluster, when non-nil, runs the TCP mesh across worker OS
	// processes instead of in-process: Open stands up a coordinator
	// that spawns (or adopts) the workers, hands each a contiguous rank
	// range and the Links plan, and wires the mesh across
	// process boundaries; Run then drives cluster-wide runs of any
	// collective through the same Session API. EngineTCP only — Open rejects the
	// other engines. See ClusterSpec for the run-option restrictions a
	// distributed session imposes.
	Cluster *ClusterSpec
}

// ClusterSpec configures a multi-process TCP session (see
// SessionOptions.Cluster). The mesh's p ranks are split into Workers
// contiguous near-equal ranges, one worker process each. Open dials the
// links between the workers' leader ranks, which the barrier uses, and
// the pairs of SessionOptions.Links; each Run dials the pairs its
// schedule adds, and only pairs that cross workers get a socket: a
// worker's own ranks exchange through memory, while pairs between
// workers carry the single-process engine's frame protocol.
//
// A cluster session moves run specs, not Go values, between processes,
// so Run rejects options that cannot cross a process boundary:
// RunOptions.Algorithm, Payload, Faults, Trace and Context, and
// Config.MsgBytesFor must be unset. Ranks send the default
// deterministic payload (see RunOptions.Payload) and every worker
// verifies its own ranks' bundles byte-exactly against the collective's
// postcondition; Result.Bundles is nil — payload bytes never travel the
// control plane.
type ClusterSpec struct {
	// Workers is the number of worker processes, 1 ≤ Workers ≤ p.
	// Spawned workers share this host and get their share of its CPUs:
	// each runs with GOMAXPROCS = max(1, GOMAXPROCS/Workers) of this
	// process (the host's CPUs by default), unless this process's
	// environment sets GOMAXPROCS, which they then inherit.
	Workers int
}

// MaybeClusterWorker turns the current process into a cluster worker
// when the coordinator spawned it (the STPBCAST_CLUSTER_WORKER
// environment variable carries the control address): it serves the
// cluster session until it closes, then exits the process. In ordinary
// processes it returns immediately, doing nothing. A cluster session
// spawns its workers by re-executing the current binary on the local
// host, so any binary that opens one must call it at the top of main.
func MaybeClusterWorker() { cluster.MaybeWorker() }

// SessionStats aggregate a session's activity across runs.
type SessionStats struct {
	// Runs counts Session.Run calls that reached the engine — a call
	// refused with ErrInvalidRun does not; Failures counts those that
	// returned an error.
	Runs     int
	Failures int
	// Bytes totals the algorithm payload bytes sent across all
	// successful runs, summed over ranks (simulated lengths under
	// EngineSim; barrier/dissemination overhead excluded).
	Bytes int64
	// Reconnects counts TCP mesh rebuilds after an aborted run or a
	// connection failure (always 0 for the other engines).
	Reconnects int
}

// Session is a persistent broadcast engine: Open stands the engine up
// once — for EngineTCP that is one listener per rank and the connections
// of SessionOptions.Links with their reader pumps; for EngineLive the
// mailboxes and barrier — and Run executes many broadcasts over it, each
// isolated from the last (fresh mailboxes, per-run epoch on the wire,
// per-run fault injector and tracer). A TCP run first dials the pairs
// its schedule uses that the mesh lacks, so the mesh grows to the union
// of the session's schedules and no further. Close tears the engine down
// and returns the aggregate stats.
//
// For back-to-back broadcasts this amortizes setup: the TCP listeners
// and connections, whose construction dominates a one-shot Run, are
// built once. A run that
// aborts (panic, injected kill, deadline) does not end the session — the
// next Run reuses the engine, rebuilding the TCP mesh if the abort
// damaged it (counted in SessionStats.Reconnects).
//
// Run and Close serialize; a Session executes one run at a time.
// Concurrent Run calls are safe — they queue. Stats is safe to call from
// any goroutine at any moment, including while a run is in flight, and
// never blocks behind one (the daemon's /v1/sessions and /metrics
// endpoints poll it under load).
type Session struct {
	// runMu serializes Run and Close: one broadcast (or teardown) at a
	// time per session.
	runMu sync.Mutex
	// mu guards stats and closed. It is only ever held for field access —
	// never across an engine run — so Stats answers immediately even while
	// a slow broadcast holds runMu.
	mu     sync.Mutex
	m      *Machine
	engine Engine
	opts   SessionOptions
	liveM  *live.Machine
	tcpM   *tcp.Machine
	clu    *cluster.Coordinator
	// binds compiles each instance the session runs once, and payloads
	// keeps each rank's last default payload (RunOptions.Payload unset):
	// the bytes Collective.Payload made for its collective and length,
	// handed out again while they match. Bundles and payloads are
	// read-only, so a later run may share bytes an earlier result holds.
	// runMu guards both; a run's rank r touches payloads[r] only.
	binds    core.Bindings
	payloads []payloadMemo
	// maps holds the runs' bundle maps, and released is Result.Release's
	// mark on them: a result released before the next run began hands
	// its maps to that run to clear and refill. The session's run n
	// (stats.Runs counts the runs before it) is run n of maps; Run
	// begins it and Release checks that it is still the latest, under mu.
	maps     comm.Store[map[int][]byte]
	released comm.Mark
	stats    SessionStats
	closed   bool
}

// payloadMemo is one rank's last default payload: Collective.Payload's
// bytes for coll at n bytes per source or chunk.
type payloadMemo struct {
	coll core.Collective
	n    int
	data []byte
}

// Open stands up a persistent engine for machine m. The caller owns the
// session and must Close it.
func Open(m *Machine, engine Engine, opts SessionOptions) (*Session, error) {
	s := &Session{m: m, engine: engine, opts: opts}
	if opts.Cluster != nil && engine != EngineTCP {
		return nil, fmt.Errorf("stpbcast: cluster sessions require EngineTCP, not %v", engine)
	}
	switch engine {
	case EngineSim:
		// The simulator takes a network per run; validate the machine
		// once so a bad topology surfaces at Open like the other
		// engines' setup errors.
		nw, err := m.NewNetwork()
		if err != nil {
			return nil, err
		}
		nw.Release()
	case EngineLive:
		lm, err := live.NewMachine(m.P())
		if err != nil {
			return nil, err
		}
		s.liveM = lm
	case EngineTCP:
		if cs := opts.Cluster; cs != nil {
			c, err := cluster.Start(cluster.Spec{Workers: cs.Workers, P: m.P(), Links: opts.Links})
			if err != nil {
				return nil, err
			}
			s.clu = c
			return s, nil
		}
		links := opts.Links
		if links == nil {
			links = [][2]int{} // no prefetch: each run's pairs are dialed before it starts
		}
		tm, err := tcp.NewMachine(m.P(), tcp.Options{Context: opts.Context, Links: links})
		if err != nil {
			return nil, err
		}
		s.tcpM = tm
	default:
		return nil, fmt.Errorf("stpbcast: unknown engine %v", engine)
	}
	return s, nil
}

// RoutesFor extracts the connection plan for one configuration: the
// directed logical links the configured algorithm's schedule uses on
// machine m. Feed the result to SessionOptions.Links to have Open dial
// exactly those connections, so that the configuration's first Run
// dials nothing. A run of another configuration on that session still
// works: the pairs dialed before a run because the plan lacked them are
// its cost. Barriers need no links of their own inside a process; a
// cluster session adds the few between its workers itself.
// Config.Algorithm AutoAlgorithm resolves through the planner exactly as
// Run would.
func RoutesFor(m *Machine, cfg Config) ([][2]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, alg, err := resolve(m, cfg, nil)
	if err != nil {
		return nil, err
	}
	return plan.Routes(m, alg, spec, cfg.MsgBytes)
}

// Stats returns the session's aggregate stats so far. It is safe for
// concurrent use from any goroutine and does not block behind an
// in-flight Run or Close: it reads the counters under a short-lived
// field lock (TCP reconnects come from an atomic), so a monitoring
// endpoint can poll it while a slow broadcast is executing. Counters
// from a run still in flight appear only once that run completes.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if s.tcpM != nil && !s.closed {
		st.Reconnects = s.tcpM.Reconnects()
	}
	if s.clu != nil && !s.closed {
		st.Reconnects = s.clu.Resets()
	}
	return st
}

// Close tears the engine down (TCP listeners, connections and reader
// pumps joined) and returns the session's aggregate stats. Close is
// idempotent and safe for concurrent use with Run: it stops admitting
// new runs, waits for the run in flight and only then touches the
// engine, so a Run still queued (or arriving later) reports a
// closed-session error instead of touching the torn-down engine.
func (s *Session) Close() (SessionStats, error) {
	s.mu.Lock()
	if s.closed {
		stats := s.stats
		s.mu.Unlock()
		return stats, nil
	}
	s.closed = true
	s.mu.Unlock()
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.tcpM != nil {
		s.stats.Reconnects = s.tcpM.Reconnects()
		err = s.tcpM.Close()
	}
	if s.clu != nil {
		s.stats.Reconnects = s.clu.Resets()
		err = s.clu.Close()
	}
	if s.liveM != nil {
		err = s.liveM.Close()
	}
	return s.stats, err
}

// Run executes one broadcast over the session's warm engine. Every call
// is isolated from its predecessors: fresh mailboxes and epoch, its own
// fault plan and tracer from opts, per-run deadlines. cfg may change
// freely between runs (algorithm, distribution, message sizes) as long
// as it targets the session's machine.
//
// The result's bundles are the caller's: no later run touches them until
// the caller calls Result.Release, after which it must not read them.
// A caller done with a result releases it, so the next run refills its
// maps and, on TCP, decodes its bytes into the same storage; one that
// keeps results, or never releases, gets fresh maps and bytes every run.
//
// Run is safe for concurrent use: a session executes one run at a time,
// and concurrent callers queue. Stats may be read concurrently without
// waiting for the queue to drain.
func (s *Session) Run(cfg Config, opts RunOptions) (*Result, error) {
	spec, alg, err := admit(s.m, s.engine, s.clu != nil, cfg, opts)
	if err != nil {
		return nil, err
	}
	return s.run(cfg, opts, spec, alg)
}

// ErrInvalidRun is what Run and Session.Run wrap when they refuse the
// caller's input before anything runs (test with errors.Is): a config
// that Validate rejects or that does not resolve against the machine,
// a fault plan on EngineSim or naming a rank the machine lacks, or an
// option a cluster session cannot honour. A session counts no run for
// it.
var ErrInvalidRun = errors.New("stpbcast: invalid run")

// invalidRun marks a refusal of the caller's input: it reads as its
// cause and matches ErrInvalidRun.
type invalidRun struct{ error }

func (e invalidRun) Is(target error) bool { return target == ErrInvalidRun }
func (e invalidRun) Unwrap() error        { return e.error }

// admit validates cfg, checks opts against the engine (a cluster
// session's when cluster is set) and m, and resolves the run's instance
// and algorithm: everything that can refuse the caller's input does so
// here, as ErrInvalidRun, before a run is counted or an engine stood up.
func admit(m *Machine, engine Engine, cluster bool, cfg Config, opts RunOptions) (core.Spec, Algorithm, error) {
	err := cfg.Validate()
	if err == nil {
		err = checkOptions(m.P(), engine, cluster, cfg, opts)
	}
	var spec core.Spec
	var alg Algorithm
	if err == nil {
		spec, alg, err = resolve(m, cfg, opts.Algorithm)
	}
	if err != nil {
		return core.Spec{}, nil, invalidRun{err}
	}
	return spec, alg, nil
}

// checkOptions refuses the options a run on p ranks cannot honour: a
// fault plan on the simulator, or one naming a rank the machine lacks
// (it would inject nothing), and on a cluster session whatever cannot
// cross a process boundary.
func checkOptions(p int, engine Engine, cluster bool, cfg Config, opts RunOptions) error {
	if cluster {
		// A cluster session moves run specs, not Go values, between
		// processes.
		switch {
		case opts.Algorithm != nil:
			return errors.New("stpbcast: cluster runs cannot use RunOptions.Algorithm (an explicit Algorithm value cannot cross process boundaries); name a registry algorithm in Config.Algorithm")
		case opts.Payload != nil:
			return errors.New("stpbcast: cluster runs cannot use RunOptions.Payload; workers synthesize the default deterministic payload")
		case opts.Faults != nil:
			return errors.New("stpbcast: cluster runs do not support fault injection")
		case opts.Trace != nil:
			return errors.New("stpbcast: cluster runs do not support tracing")
		case opts.Context != nil:
			return errors.New("stpbcast: cluster runs do not support Context; bound them with RunTimeout")
		case cfg.MsgBytesFor != nil:
			return errors.New("stpbcast: cluster runs do not support Config.MsgBytesFor; use a uniform MsgBytes")
		case cfg.MsgBytes <= 0:
			return fmt.Errorf("stpbcast: cluster runs need a positive Config.MsgBytes, got %d", cfg.MsgBytes)
		}
	}
	plan := opts.Faults
	if plan == nil {
		return nil
	}
	if engine == EngineSim {
		return errors.New("stpbcast: fault injection requires a real-byte engine (EngineLive or EngineTCP)")
	}
	for i, k := range plan.Kills {
		if k.Rank < 0 || k.Rank >= p {
			return fmt.Errorf("stpbcast: FaultPlan.Kills[%d]: rank %d outside the machine's %d ranks", i, k.Rank, p)
		}
	}
	for i, f := range plan.Faults {
		if f.Src < 0 || f.Src >= p || f.Dst < 0 || f.Dst >= p {
			return fmt.Errorf("stpbcast: FaultPlan.Faults[%d]: link %d→%d outside the machine's %d ranks", i, f.Src, f.Dst, p)
		}
	}
	return nil
}

// run executes one admitted run, the instance and algorithm resolved,
// over the session.
func (s *Session) run(cfg Config, opts RunOptions, spec core.Spec, alg Algorithm) (*Result, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("stpbcast: Run on closed session")
	}
	run := uint32(s.stats.Runs) + 1
	s.maps.Begin(run, &s.released, nil)
	s.mu.Unlock()
	var res *Result
	var sent int64
	var err error
	switch {
	case s.engine == EngineSim:
		res, sent, err = runSim(s.m, cfg, opts, spec, alg)
	case s.clu != nil:
		res, sent, err = s.runCluster(cfg, opts, spec, alg)
	default:
		res, sent, err = s.runReal(cfg, opts, spec, alg, run)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Runs++
	if err != nil {
		s.stats.Failures++
		return nil, err
	}
	s.stats.Bytes += sent
	return res, nil
}

// Run executes one broadcast on the chosen engine: it is the unified
// one-shot entrypoint (open-run-close over a Session). For many
// broadcasts back to back, Open a Session instead and amortize the
// engine setup.
func Run(m *Machine, engine Engine, cfg Config, opts RunOptions) (*Result, error) {
	// Admit before standing up the engine, so a bad config never pays
	// (or leaks) a TCP mesh.
	spec, alg, err := admit(m, engine, false, cfg, opts)
	if err != nil {
		return nil, err
	}
	s, err := Open(m, engine, SessionOptions{Context: opts.Context})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.run(cfg, opts, spec, alg)
}

// Result is the outcome of one broadcast through the unified Run API.
// The simulator fields (Params through NodeLoad) are populated only
// under EngineSim; Bundles and Faults only under the real-byte engines.
type Result struct {
	// Elapsed is the broadcast duration: simulated makespan under
	// EngineSim, wall clock otherwise.
	Elapsed time.Duration
	// Params are the paper's characteristic parameters of the run
	// (EngineSim only). Congestion, AvgActive and Iterations are read off
	// the program the simulator replayed.
	Params Params
	// ActiveProfile is the number of processors communicating in each
	// algorithm iteration (EngineSim only).
	ActiveProfile []int
	// HotLinks are the ten busiest directed links of the run, most
	// loaded first (EngineSim only).
	HotLinks []LinkStats
	// NodeLoad is, per physical node, the occupancy of its busiest
	// outgoing link (EngineSim only; input for viz.Heatmap).
	NodeLoad []time.Duration
	// Bundles holds, per rank, the received original messages keyed by
	// origin rank (real-byte engines only). The combining collectives
	// (Reduce, AllReduce) deliver a single entry keyed by ReducedOrigin;
	// a Reduce leaves non-root ranks with an empty map. The bytes are
	// read-only: ranks that exchanged a message in memory share it
	// uncopied, so one slice may sit in several ranks' maps and may be
	// the very buffer RunOptions.Payload returned. They stay valid until
	// Release, or for as long as the Result is held if it never is.
	Bundles []map[int][]byte
	// Faults lists the faults injected during the run, when
	// RunOptions.Faults was set.
	Faults []FaultEvent
	// Trace echoes RunOptions.Trace when tracing was requested.
	Trace *TraceRecorder

	// sess and run name the session run whose bundle maps Release hands
	// back (nil sess: nothing to hand back); tcpM and epoch the TCP run
	// whose received bytes it hands back (nil tcpM: none).
	sess  *Session
	run   uint32
	tcpM  *tcp.Machine
	epoch uint32
	// coll, sources, msgBytes and msgBytesFor are what Check needs of the
	// instance the run resolved (its rows and cols are sess.m's); payload
	// marks a run of RunOptions.Payload, whose bytes Check cannot know.
	coll        Collective
	sources     []int
	msgBytes    int
	msgBytesFor func(rank int) int
	payload     bool
}

// Check verifies every rank's bundle against the postcondition of the
// collective the run resolved, for the default payload (see
// RunOptions.Payload) — the check a cluster worker makes of its own
// ranks. The first failure names the rank, the origin and, for wrong
// bytes, the first bad one; bundles that pass cost no allocation. A
// result without bundles (EngineSim, or a cluster session, whose workers
// check their ranks themselves) returns nil, and one of a run with
// RunOptions.Payload, whose bytes are the caller's, an error. Like any
// read of Bundles, Check belongs before Release.
func (r *Result) Check() error {
	if r.Bundles == nil {
		return nil
	}
	if r.payload {
		return errors.New("stpbcast: Result.Check: the run sent RunOptions.Payload's bytes, not the default payload")
	}
	m := r.sess.m
	if len(r.Bundles) != m.P() {
		return fmt.Errorf("stpbcast: Result.Check: bundles for %d ranks, want %d", len(r.Bundles), m.P())
	}
	spec := core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: r.sources}
	sizes := func(rank int) int { return msgLen(r.msgBytes, r.msgBytesFor, rank) }
	for rank, bundle := range r.Bundles {
		// A map holds no part array to hand Check: build one on the
		// stack, so that a bundle that passes allocates nothing.
		var stack [checkOnStack]comm.Part
		parts := stack[:0]
		for origin, data := range bundle {
			parts = append(parts, comm.Part{Origin: origin, Data: data})
		}
		if err := r.coll.Check(spec, sizes, rank, comm.Message{Parts: parts}); err != nil {
			return err
		}
	}
	return nil
}

// checkOnStack is the most parts of one bundle Check builds a message
// of without allocating: an all-to-all's bundle on a 64-rank machine.
const checkOnStack = 64

// Release hands the result's storage back to its session for a later
// run: after Release the caller must not read Bundles, nor any slice
// taken from them. Under EngineLive and EngineTCP the session clears and
// refills the per-rank maps of Bundles in the next run; under EngineTCP
// it also decodes later runs' frames into the bytes this run received,
// so a warm run allocates almost nothing for the bytes it receives, and
// between runs the session retains one run's received bytes per
// connection end. A result never released keeps its maps and bytes for
// as long as it is held, and the GC reclaims them after, as if Release
// did not exist. A session's first run lists nothing, so its maps and
// bytes are not handed out again even when released. Release is a no-op
// when called twice, once a later Run on the session has started (the
// storage then stays the caller's), and for results of EngineSim and
// cluster sessions, which hold no bundles.
func (r *Result) Release() {
	if r.tcpM != nil {
		r.tcpM.Reclaim(r.epoch)
	}
	if s := r.sess; s != nil {
		s.mu.Lock()
		if uint32(s.stats.Runs) == r.run {
			s.released.Set(r.run)
		}
		s.mu.Unlock()
	}
}

// runSim executes one simulated collective. The simulator is
// deterministic, so a session adds no warm state — each run builds a
// fresh network, keeping results identical to the one-shot path.
func runSim(m *Machine, cfg Config, opts RunOptions, spec core.Spec, alg Algorithm) (*Result, int64, error) {
	sopts := sim.Options{}
	if opts.Trace != nil {
		sopts.Tracer = opts.Trace
	}
	// Non-broadcast collectives run uniform lengths (Validate rejects
	// MsgBytesFor for them), which is what msgLen gives them.
	res, nw, err := m.RunSim(alg, spec, func(rank int) int { return msgLen(cfg.MsgBytes, cfg.MsgBytesFor, rank) }, sopts)
	if err != nil {
		return nil, 0, err
	}
	loads, hot := nw.NodeLoad(), nw.HotLinks(10)
	nw.Release()
	nodeLoad := make([]time.Duration, len(loads))
	for i, v := range loads {
		nodeLoad[i] = v.Duration()
	}
	var sent int64
	for i := range res.Procs {
		sent += res.Procs[i].SendBytes
	}
	return &Result{
		Elapsed:       res.Elapsed.Duration(),
		Params:        metrics.FromResult(res),
		ActiveProfile: metrics.ActiveProfile(res),
		HotLinks:      hot,
		NodeLoad:      nodeLoad,
		Trace:         opts.Trace,
	}, sent, nil
}

// runReal executes one broadcast of the resolved instance over the
// session's warm real-byte engine: a per-run fault injector
// wrapping each rank's comm, and per-run tracer attachment. A registry
// algorithm is compiled once per instance the session runs (binds).
//
// run numbers the run in the session's maps: those of a released result,
// when the store hands them out, are cleared and refilled here. Once the
// maps are built the run's part arrays are dead: the engine hands them
// to the next run (Recycle).
func (s *Session) runReal(cfg Config, opts RunOptions, spec core.Spec, alg Algorithm, run uint32) (*Result, int64, error) {
	coll := cfg.collective()
	alg = s.binds.Bind(alg, spec)
	p := s.m.P()
	payload := opts.Payload
	if payload == nil {
		if s.payloads == nil {
			s.payloads = make([]payloadMemo, p)
		}
		memo := s.payloads
		payload = func(rank int) []byte {
			m, n := &memo[rank], msgLen(cfg.MsgBytes, cfg.MsgBytesFor, rank)
			if m.data == nil || m.coll != coll || m.n != n {
				*m = payloadMemo{coll: coll, n: n, data: coll.Payload(p, rank, n)}
			}
			return m.data
		}
	}
	var inj *faults.Injector
	if opts.Faults != nil {
		inj = faults.New(*opts.Faults)
	}
	bundles := s.maps.Get(p)[:p]
	body := func(pr *engine.Proc) {
		rank := pr.Rank()
		mine := core.InitialOn(pr, coll, spec, payload)
		var c comm.Comm = pr
		if inj != nil {
			c = inj.Wrap(pr)
		}
		out := alg.Run(c, spec, mine)
		got := bundles[rank]
		if got == nil {
			got = make(map[int][]byte, len(out.Parts))
			bundles[rank] = got
		} else {
			clear(got)
		}
		for _, part := range out.Parts {
			got[part.Origin] = part.Data
		}
	}

	res := &Result{
		Bundles: bundles, Trace: opts.Trace, sess: s, run: run,
		coll: coll, sources: spec.Sources, msgBytes: cfg.MsgBytes, msgBytesFor: cfg.MsgBytesFor, payload: opts.Payload != nil,
	}
	var r engine.Result
	var err error
	switch s.engine {
	case EngineLive:
		if r, err = s.liveM.Run(live.Options{
			Context:     opts.Context,
			RunTimeout:  opts.RunTimeout,
			RecvTimeout: opts.RecvTimeout,
			Tracer:      tracerOrNil(opts.Trace),
		}, body); err != nil {
			return nil, 0, err
		}
		s.liveM.Recycle()
	case EngineTCP:
		if err = s.tcpM.Prepare(opts.Context, core.ProgramOf(alg)); err != nil {
			return nil, 0, err
		}
		if r, err = s.tcpM.Run(tcp.Options{
			Context:     opts.Context,
			RunTimeout:  opts.RunTimeout,
			RecvTimeout: opts.RecvTimeout,
			Tracer:      tracerOrNil(opts.Trace),
		}, body); err != nil {
			return nil, 0, err
		}
		s.tcpM.Recycle()
		res.tcpM, res.epoch = s.tcpM, s.tcpM.Epoch()
	default:
		return nil, 0, fmt.Errorf("stpbcast: unknown engine %v", s.engine)
	}
	res.Elapsed = r.Elapsed
	if inj != nil {
		res.Faults = inj.Events()
	}
	return res, r.SendBytes, nil
}

// runCluster executes one collective across the session's worker
// processes: it ships the resolved instance to the coordinator as an
// explicit run spec (registry algorithm name, which names the
// collective, and explicit source ranks) — Go values cannot cross the
// process boundary, which is also why checkOptions refuses the options
// that carry them.
func (s *Session) runCluster(cfg Config, opts RunOptions, spec core.Spec, alg Algorithm) (*Result, int64, error) {
	res, err := s.clu.Run(cluster.RunSpec{
		Rows:          spec.Rows,
		Cols:          spec.Cols,
		Sources:       spec.Sources,
		RowMajor:      cfg.RowMajor,
		Algorithm:     alg.Name(),
		MsgBytes:      cfg.MsgBytes,
		RecvTimeoutNs: int64(opts.RecvTimeout),
		RunTimeoutNs:  int64(opts.RunTimeout),
	})
	if err != nil {
		return nil, 0, err
	}
	// Bundles stay nil: each worker verified its own ranks with
	// core.Collective.Check;
	// shipping payload bytes over the control plane would defeat the
	// point of distributing the mesh.
	return &Result{Elapsed: res.Elapsed}, res.SendBytes, nil
}

// tracerOrNil avoids the classic non-nil interface holding a nil
// pointer: a nil *TraceRecorder must reach the engines as a nil Tracer.
func tracerOrNil(rec *TraceRecorder) obsTracer {
	if rec == nil {
		return nil
	}
	return rec
}

// msgLen resolves one source's message length: msgBytesFor's, clamped
// at zero, when the config sets it (Config.MsgBytesFor), else msgBytes.
func msgLen(msgBytes int, msgBytesFor func(rank int) int, rank int) int {
	if msgBytesFor != nil {
		return max(msgBytesFor(rank), 0)
	}
	return msgBytes
}
