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
	// WorkerCmd, when non-nil, is the argv of the worker command to
	// spawn; the coordinator passes the control address in the
	// STPBCAST_CLUSTER_WORKER environment variable. nil re-executes the
	// current binary — any main that calls MaybeClusterWorker first
	// (cmd/stpworker, the benchmark) can serve.
	WorkerCmd []string
	// Adopt disables spawning: the session waits for Workers externally
	// started workers to dial ControlAddr.
	Adopt bool
	// ControlAddr is the coordinator's control listener address. Empty
	// means an ephemeral loopback port (fine for spawned workers, which
	// inherit it; adopted workers need a well-known address).
	ControlAddr string
	// AdoptTimeout bounds the wait for workers to dial in; 0 means a
	// generous default.
	AdoptTimeout time.Duration
	// ListenHost is the host every worker binds its mesh listeners to.
	// Empty means loopback; workers spread across hosts need an
	// externally visible address.
	ListenHost string
}

// MaybeClusterWorker turns the current process into a cluster worker
// when the coordinator spawned it (the STPBCAST_CLUSTER_WORKER
// environment variable carries the control address): it serves the
// cluster session until it closes, then exits the process. In ordinary
// processes it returns immediately, doing nothing. Any binary that may
// be named in (or default to) ClusterSpec.WorkerCmd must call it at the
// top of main.
func MaybeClusterWorker() { cluster.MaybeWorker() }

// SessionStats aggregate a session's activity across runs.
type SessionStats struct {
	// Runs counts Session.Run calls that passed validation and reached
	// the engine; Failures counts those that returned an error.
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
	// binds compiles each instance the session runs once; runMu guards it.
	binds  core.Bindings
	stats  SessionStats
	closed bool
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
		// The simulator builds its (cheap) network per run for
		// determinism; validate the machine once so a bad topology
		// surfaces at Open like the other engines' setup errors.
		if _, err := m.NewNetwork(); err != nil {
			return nil, err
		}
	case EngineLive:
		lm, err := live.NewMachine(m.P())
		if err != nil {
			return nil, err
		}
		s.liveM = lm
	case EngineTCP:
		if cs := opts.Cluster; cs != nil {
			c, err := cluster.Start(cluster.Spec{
				Workers:      cs.Workers,
				P:            m.P(),
				Links:        opts.Links,
				WorkerCmd:    cs.WorkerCmd,
				Adopt:        cs.Adopt,
				ControlAddr:  cs.ControlAddr,
				AdoptTimeout: cs.AdoptTimeout,
				ListenHost:   cs.ListenHost,
			})
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
	spec, err := cfg.spec(m)
	if err != nil {
		return nil, err
	}
	alg, err := resolveAlgorithm(m, cfg, spec)
	if err != nil {
		return nil, err
	}
	return plan.Routes(m, alg, spec, cfg.MsgBytes)
}

// Engine returns the engine the session was opened with.
func (s *Session) Engine() Engine { return s.engine }

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
// Run is safe for concurrent use: a session executes one run at a time,
// and concurrent callers queue. Stats may be read concurrently without
// waiting for the queue to drain.
func (s *Session) Run(cfg Config, opts RunOptions) (*Result, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("stpbcast: Run on closed session")
	}
	s.mu.Unlock()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var res *Result
	var sent int64
	var err error
	if s.engine == EngineSim {
		res, sent, err = runSim(s.m, cfg, opts)
	} else {
		res, sent, err = s.runReal(cfg, opts)
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
	// Validate before standing up the engine, so a bad config never pays
	// (or leaks) a TCP mesh.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := cfg.spec(m); err != nil {
		return nil, err
	}
	s, err := Open(m, engine, SessionOptions{Context: opts.Context})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(cfg, opts)
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
	// the very buffer RunOptions.Payload returned.
	Bundles []map[int][]byte
	// Faults lists the faults injected during the run, when
	// RunOptions.Faults was set.
	Faults []FaultEvent
	// Trace echoes RunOptions.Trace when tracing was requested.
	Trace *TraceRecorder
}

// checkAlgorithmCollective rejects an algorithm whose collective tag
// does not match the config's collective — the guard behind
// RunOptions.Algorithm (named algorithms are already collective-checked
// by resolveAlgorithm's ByNameFor).
func checkAlgorithmCollective(alg Algorithm, coll Collective) error {
	if got := core.CollectiveOf(alg); got != coll {
		return fmt.Errorf("stpbcast: algorithm %s implements %s, but Config.Collective is %s", alg.Name(), got, coll)
	}
	return nil
}

// runSim executes one simulated collective. The simulator is
// deterministic, so a session adds no warm state — each run builds a
// fresh network, keeping results identical to the one-shot path.
func runSim(m *Machine, cfg Config, opts RunOptions) (*Result, int64, error) {
	if opts.Faults != nil {
		return nil, 0, errors.New("stpbcast: fault injection requires a real-byte engine (EngineLive or EngineTCP)")
	}
	spec, err := cfg.spec(m)
	if err != nil {
		return nil, 0, err
	}
	coll := cfg.collective()
	alg := opts.Algorithm
	if alg == nil {
		alg, err = resolveAlgorithm(m, cfg, spec)
		if err != nil {
			return nil, 0, err
		}
	}
	if err := checkAlgorithmCollective(alg, coll); err != nil {
		return nil, 0, err
	}
	sopts := sim.Options{}
	if opts.Trace != nil {
		sopts.Tracer = opts.Trace
	}
	// Non-broadcast collectives run uniform lengths (Validate rejects
	// MsgBytesFor for them), which is what msgLenFor gives them.
	res, nw, err := m.RunSim(alg, spec, func(rank int) int { return msgLenFor(cfg, rank) }, sopts)
	if err != nil {
		return nil, 0, err
	}
	loads := nw.NodeLoad()
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
		HotLinks:      nw.HotLinks(10),
		NodeLoad:      nodeLoad,
		Trace:         opts.Trace,
	}, sent, nil
}

// runReal executes one broadcast over the session's warm real-byte
// engine: per-run spec/algorithm resolution, a per-run fault injector
// wrapping each rank's comm, and per-run tracer attachment. A registry
// algorithm is compiled once per instance the session runs (binds).
func (s *Session) runReal(cfg Config, opts RunOptions) (*Result, int64, error) {
	if s.clu != nil {
		return s.runCluster(cfg, opts)
	}
	spec, err := cfg.spec(s.m)
	if err != nil {
		return nil, 0, err
	}
	coll := cfg.collective()
	alg := opts.Algorithm
	if alg == nil {
		alg, err = resolveAlgorithm(s.m, cfg, spec)
		if err != nil {
			return nil, 0, err
		}
	}
	if err := checkAlgorithmCollective(alg, coll); err != nil {
		return nil, 0, err
	}
	alg = s.binds.Bind(alg, spec)
	payload := opts.Payload
	if payload == nil {
		p := s.m.P()
		payload = func(rank int) []byte { return coll.Payload(p, rank, msgLenFor(cfg, rank)) }
	}
	var inj *faults.Injector
	if opts.Faults != nil {
		inj = faults.New(*opts.Faults)
		if opts.Trace != nil {
			inj.SetTracer(opts.Trace, time.Now())
		}
	}
	bundles := make([]map[int][]byte, s.m.P())
	body := func(c comm.Comm) {
		rank := c.Rank()
		if inj != nil {
			c = inj.Wrap(c)
		}
		mine := core.InitialFor(coll, spec, rank, payload)
		out := alg.Run(c, spec, mine)
		got := make(map[int][]byte, len(out.Parts))
		for _, part := range out.Parts {
			got[part.Origin] = part.Data
		}
		bundles[rank] = got
	}

	var elapsed time.Duration
	var sent int64
	switch s.engine {
	case EngineLive:
		r, err := s.liveM.Run(live.Options{
			Context:     opts.Context,
			RunTimeout:  opts.RunTimeout,
			RecvTimeout: opts.RecvTimeout,
			Tracer:      tracerOrNil(opts.Trace),
		}, func(pr *live.Proc) { body(pr) })
		if err != nil {
			return nil, 0, err
		}
		elapsed = r.Elapsed
		for i := range r.Procs {
			sent += r.Procs[i].SendBytes
		}
	case EngineTCP:
		if err := s.tcpM.Prepare(opts.Context, core.ProgramOf(alg)); err != nil {
			return nil, 0, err
		}
		r, err := s.tcpM.Run(tcp.Options{
			Context:     opts.Context,
			RunTimeout:  opts.RunTimeout,
			RecvTimeout: opts.RecvTimeout,
			Tracer:      tracerOrNil(opts.Trace),
		}, func(pr *tcp.Proc) { body(pr) })
		if err != nil {
			return nil, 0, err
		}
		elapsed = r.Elapsed
		for i := range r.Procs {
			sent += r.Procs[i].SendBytes
		}
	default:
		return nil, 0, fmt.Errorf("stpbcast: unknown engine %v", s.engine)
	}
	res := &Result{Elapsed: elapsed, Bundles: bundles, Trace: opts.Trace}
	if inj != nil {
		res.Faults = inj.Events()
	}
	return res, sent, nil
}

// runCluster executes one collective across the session's worker
// processes: it resolves the config to an explicit run spec (registry
// algorithm name, which names the collective, and explicit source ranks)
// and ships that to the coordinator — Go values cannot cross the process
// boundary, which is also why the options checked below must be unset.
func (s *Session) runCluster(cfg Config, opts RunOptions) (*Result, int64, error) {
	switch {
	case opts.Algorithm != nil:
		return nil, 0, errors.New("stpbcast: cluster runs cannot use RunOptions.Algorithm (an explicit Algorithm value cannot cross process boundaries); name a registry algorithm in Config.Algorithm")
	case opts.Payload != nil:
		return nil, 0, errors.New("stpbcast: cluster runs cannot use RunOptions.Payload; workers synthesize the default deterministic payload")
	case opts.Faults != nil:
		return nil, 0, errors.New("stpbcast: cluster runs do not support fault injection")
	case opts.Trace != nil:
		return nil, 0, errors.New("stpbcast: cluster runs do not support tracing")
	case opts.Context != nil:
		return nil, 0, errors.New("stpbcast: cluster runs do not support Context; bound them with RunTimeout")
	case cfg.MsgBytesFor != nil:
		return nil, 0, errors.New("stpbcast: cluster runs do not support Config.MsgBytesFor; use a uniform MsgBytes")
	case cfg.MsgBytes <= 0:
		return nil, 0, fmt.Errorf("stpbcast: cluster runs need a positive Config.MsgBytes, got %d", cfg.MsgBytes)
	}
	spec, err := cfg.spec(s.m)
	if err != nil {
		return nil, 0, err
	}
	alg, err := resolveAlgorithm(s.m, cfg, spec)
	if err != nil {
		return nil, 0, err
	}
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
	var sent int64
	for i := range res.Procs {
		sent += res.Procs[i].SendBytes
	}
	// Bundles stay nil: each worker verified its own ranks with
	// core.Collective.Check;
	// shipping payload bytes over the control plane would defeat the
	// point of distributing the mesh.
	return &Result{Elapsed: res.Elapsed}, sent, nil
}

// tracerOrNil avoids the classic non-nil interface holding a nil
// pointer: a nil *TraceRecorder must reach the engines as a nil Tracer.
func tracerOrNil(rec *TraceRecorder) obsTracer {
	if rec == nil {
		return nil
	}
	return rec
}

// msgLenFor resolves one source's message length under cfg.
func msgLenFor(cfg Config, rank int) int {
	if cfg.MsgBytesFor != nil {
		if n := cfg.MsgBytesFor(rank); n > 0 {
			return n
		}
		return 0
	}
	return cfg.MsgBytes
}
