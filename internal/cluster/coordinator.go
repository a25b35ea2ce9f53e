package cluster

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
)

// Spec describes the cluster to stand up: how many workers share the
// p ranks, how to obtain the worker processes, and the engine setup
// options every worker must agree on.
type Spec struct {
	// Workers is the number of worker processes; each receives a
	// contiguous near-equal rank range (plan.WorkerRanges). A spawned
	// worker shares the coordinator's host and gets its share of it:
	// GOMAXPROCS is max(1, GOMAXPROCS/Workers) of the coordinator's own
	// (the host's CPUs by default), unless the coordinator's environment
	// sets GOMAXPROCS, which then wins. Adopted workers are left as they
	// were started.
	Workers int
	// P is the mesh's processor count.
	P int
	// Links is the directed link set to dial at Start (typically
	// plan.Routes output), a prefetch: every worker receives it whole
	// and dials the pairs touching its range, plus the links between the
	// workers' leader ranks that its barrier needs. A run's pairs the
	// plan lacks are dialed before it starts. nil, like an empty list,
	// prefetches nothing but the leader links.
	Links [][2]int
	// Adopt disables spawning: the coordinator waits for Workers
	// externally started workers (pointed at ControlAddr via their
	// -coord flag or WorkerEnv) to dial in. Otherwise it spawns them by
	// re-executing its own binary, the address in WorkerEnv; any main
	// that calls MaybeWorker works.
	Adopt bool
	// ControlAddr is the coordinator's control listener address.
	// Empty means an ephemeral loopback port — fine for spawned
	// workers, which inherit the address; adopted workers need a
	// well-known one.
	ControlAddr string
	// OnListen, when non-nil, is called with the control listener's
	// address before any worker is awaited — how adopted workers (and
	// tests) learn an ephemeral ControlAddr in time to dial it.
	OnListen func(addr string)

	// ListenHost is the host every worker's partial machine binds its
	// mesh listeners to.
	ListenHost string
}

// Coordinator is the cluster's foreman: it owns the control connections
// to every worker and serializes bootstrap, runs and recovery over
// them. One run at a time, like the engine's Machine.
type Coordinator struct {
	mu      sync.Mutex
	spec    Spec
	ranges  [][2]int
	leaders []int // each worker's lowest rank
	workers []*workerHandle
	procs   []*exec.Cmd
	ln      net.Listener
	epoch   uint32
	resets  int
	nInter  int // planned links crossing a worker boundary
	closed  bool
	dead    error
}

// workerHandle is the coordinator's view of one worker process.
type workerHandle struct {
	cc    *conn
	index int
	pid   int
}

// Result aggregates one cluster run: elapsed is the slowest worker's
// algorithm phase, and the totals and dial counters sum the workers'.
type Result struct {
	Elapsed time.Duration
	engine.Totals
	// LazyDials sums the workers' lifetime counts of cross-worker pairs
	// dialed before a run because the plan lacked them, each pair once
	// (by its higher rank's worker): zero means the route plan covered
	// every cross-worker link every schedule used so far.
	LazyDials int
	// ConnsOpened and PlannedPairs sum the workers' per-machine
	// counters. Only pairs that cross workers get a socket — a worker's
	// own ranks exchange through memory — and each is planned by both
	// endpoints' machines (so it counts twice in PlannedPairs) but
	// dialed once, by the higher rank, so ConnsOpened counts each
	// established connection exactly once.
	ConnsOpened  int
	PlannedPairs int
}

// Start stands the cluster up: listen, spawn (or await) the workers,
// assign rank ranges and the link plan, collect listener addresses, and
// drive every worker's mesh connect. On return every planned pair that
// crosses workers, leader links included, is established; a worker's own
// pairs exchange through memory and need no connection.
func Start(spec Spec) (*Coordinator, error) {
	if spec.Workers <= 0 {
		return nil, fmt.Errorf("cluster: non-positive worker count %d", spec.Workers)
	}
	ranges, err := plan.WorkerRanges(spec.P, spec.Workers)
	if err != nil {
		return nil, err
	}
	leaders := make([]int, len(ranges))
	for w, r := range ranges {
		leaders[w] = r[0]
	}
	// A bad plan fails before any process is spawned. Every worker gets
	// the whole plan and keeps the pairs touching its range; the links
	// crossing a worker boundary are the plan's own plus the leader
	// links the barrier's tokens travel, which every worker machine
	// plans itself.
	workerOf := func(r int) int { return sort.SearchInts(leaders, r+1) - 1 }
	nInter := 0
	for _, l := range spec.Links {
		if l[0] < 0 || l[0] >= spec.P || l[1] < 0 || l[1] >= spec.P {
			return nil, fmt.Errorf("cluster: planned link %d→%d outside machine of %d ranks", l[0], l[1], spec.P)
		}
		if workerOf(l[0]) != workerOf(l[1]) {
			nInter++
		}
	}
	if spec.Links != nil {
		for _, l := range engine.LeaderLinks(leaders) {
			if !slices.Contains(spec.Links, l) {
				nInter++
			}
		}
	}
	addr := spec.ControlAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: control listen on %s: %w", addr, err)
	}
	c := &Coordinator{spec: spec, ranges: ranges, leaders: leaders, ln: ln, nInter: nInter}
	if spec.OnListen != nil {
		spec.OnListen(c.ControlAddr())
	}
	if err := c.bootstrap(); err != nil {
		c.teardown()
		return nil, err
	}
	return c, nil
}

// ControlAddr returns the control listener's address (for adopted
// workers started after the coordinator).
func (c *Coordinator) ControlAddr() string { return c.ln.Addr().String() }

// Ranges returns each worker's [lo,hi) rank range.
func (c *Coordinator) Ranges() [][2]int { return c.ranges }

// InterLinks reports how many planned directed links cross worker
// boundaries, leader links included (0 when the cluster was started
// with a nil link plan).
func (c *Coordinator) InterLinks() int { return c.nInter }

// Resets reports how many coordinator-driven mesh recoveries have run.
func (c *Coordinator) Resets() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resets
}

// WorkerPIDs returns the OS process ID each worker announced,
// coordinator order. Distinct PIDs prove process separation.
func (c *Coordinator) WorkerPIDs() []int {
	pids := make([]int, len(c.workers))
	for i, w := range c.workers {
		pids[i] = w.pid
	}
	return pids
}

func (c *Coordinator) spawn() error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("cluster: resolve own binary for worker spawn: %w", err)
	}
	for i := 0; i < c.spec.Workers; i++ {
		cmd := exec.Command(exe)
		cmd.Env = spawnEnv(os.Environ(), c.ControlAddr(), c.spec.Workers, runtime.GOMAXPROCS(0))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("cluster: spawn worker %d: %w", i, err)
		}
		c.procs = append(c.procs, cmd)
	}
	return nil
}

// spawnEnv is a spawned worker's environment: the coordinator's own
// (environ), the control address in WorkerEnv, and the worker's share of
// the coordinator's procs (its GOMAXPROCS) as GOMAXPROCS — a spawned
// worker shares the coordinator's host, and a Go runtime would size
// itself to all of it. A GOMAXPROCS the coordinator's environment sets
// passes through unchanged.
func spawnEnv(environ []string, addr string, workers, procs int) []string {
	env := append(slices.Clip(environ), WorkerEnv+"="+addr)
	set := slices.ContainsFunc(environ, func(kv string) bool {
		v, ok := strings.CutPrefix(kv, "GOMAXPROCS=")
		return ok && v != ""
	})
	if !set {
		env = append(env, "GOMAXPROCS="+strconv.Itoa(max(1, procs/workers)))
	}
	return env
}

func (c *Coordinator) bootstrap() error {
	if !c.spec.Adopt {
		if err := c.spawn(); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(controlTimeout)
	for i := 0; i < c.spec.Workers; i++ {
		c.ln.(*net.TCPListener).SetDeadline(deadline)
		nc, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: %d of %d workers connected: %w", i, c.spec.Workers, err)
		}
		w := &workerHandle{cc: newConn(nc), index: i}
		hello, err := w.cc.expect("hello", controlTimeout)
		if err != nil {
			nc.Close()
			return fmt.Errorf("cluster: worker %d hello: %w", i, err)
		}
		w.pid = hello.PID
		c.workers = append(c.workers, w)
	}
	c.ln.(*net.TCPListener).SetDeadline(time.Time{})

	// Assign: every worker binds its listeners and reports addresses.
	merged := make(map[int]string, c.spec.P)
	for _, w := range c.workers {
		a := &assignMsg{
			Index: w.index, P: c.spec.P, Lo: c.ranges[w.index][0], Hi: c.ranges[w.index][1], Workers: c.spec.Workers,
			Links:      c.spec.Links,
			Leaders:    c.leaders,
			ListenHost: c.spec.ListenHost,
		}
		if err := w.cc.send(msg{Type: "assign", Assign: a}); err != nil {
			return fmt.Errorf("cluster: assign worker %d: %w", w.index, err)
		}
		reply, err := w.cc.expect("addrs", controlTimeout)
		if err != nil {
			return fmt.Errorf("cluster: worker %d addrs: %w", w.index, err)
		}
		for r, addr := range reply.Addrs {
			merged[r] = addr
		}
	}
	if len(merged) != c.spec.P {
		return fmt.Errorf("cluster: workers reported %d rank addresses, want %d", len(merged), c.spec.P)
	}
	return c.connectAll(merged)
}

// connectAll distributes the rank→address map and waits for every
// worker's mesh share to establish. The sends all go out before any
// ready is awaited: a worker's dials land on peers that are already
// listening (listeners exist since assign), but the peers' own ready
// may come in any order.
func (c *Coordinator) connectAll(addrs map[int]string) error {
	for _, w := range c.workers {
		if err := w.cc.send(msg{Type: "connect", Addrs: addrs}); err != nil {
			return fmt.Errorf("cluster: connect worker %d: %w", w.index, err)
		}
	}
	for _, w := range c.workers {
		if _, err := w.cc.expect("ready", controlTimeout); err != nil {
			return fmt.Errorf("cluster: worker %d mesh connect: %w", w.index, err)
		}
	}
	return nil
}

// Run executes one cluster-wide collective. A run that breaks the mesh
// is recovered once — reset every worker, reconnect every worker, retry
// — before the error is surfaced; a worker process dying is fatal for
// the cluster (rank ranges are static).
func (c *Coordinator) Run(rs RunSpec) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		if c.dead != nil {
			return nil, c.dead
		}
		return nil, errors.New("cluster: Run on closed coordinator")
	}
	// A spec no worker could run fails here, before any worker sees it
	// and without burning a recovery cycle.
	if _, _, err := rs.resolve(); err != nil {
		return nil, fmt.Errorf("cluster: run rejected: %w", err)
	}
	for attempt := 0; ; attempt++ {
		res, broken, err := c.tryRun(rs)
		if err == nil {
			return res, nil
		}
		var le *lostWorkerError
		if errors.As(err, &le) {
			// The control connection died: the worker process is gone,
			// and with it its ranks. Nothing to retry against.
			c.closed = true
			c.dead = err
			c.teardown()
			return nil, err
		}
		if !broken || attempt >= 1 {
			return nil, err
		}
		if rerr := c.recover(); rerr != nil {
			c.closed = true
			c.dead = fmt.Errorf("cluster: mesh recovery failed: %w", rerr)
			c.teardown()
			return nil, c.dead
		}
	}
}

// lostWorkerError marks a control-plane failure: the worker (or its
// connection) is gone, not just the data mesh.
type lostWorkerError struct {
	index int
	cause error
}

func (e *lostWorkerError) Error() string {
	return fmt.Sprintf("cluster: worker %d lost: %v", e.index, e.cause)
}

// tryRun drives one run: the run message to every worker, then every
// worker's done. broken reports whether the failure left the data mesh
// damaged (retryable after recovery).
func (c *Coordinator) tryRun(rs RunSpec) (*Result, bool, error) {
	c.epoch++
	rs.Epoch = c.epoch
	for _, w := range c.workers {
		if err := w.cc.sendRun(&rs); err != nil {
			return nil, false, &lostWorkerError{w.index, err}
		}
	}
	// Bounded by the run's own deadline plus slack when one is set;
	// unbounded like the engine otherwise.
	doneTimeout := time.Duration(0)
	if rs.RunTimeoutNs > 0 {
		doneTimeout = time.Duration(rs.RunTimeoutNs) + controlTimeout
	}
	res := &Result{}
	var runErrs []string
	for _, w := range c.workers {
		m, err := w.cc.expect("done", doneTimeout)
		if err != nil {
			return nil, false, &lostWorkerError{w.index, err}
		}
		d := m.Done
		if d == nil {
			return nil, false, &lostWorkerError{w.index, errors.New("empty done message")}
		}
		if d.Err != "" {
			runErrs = append(runErrs, fmt.Sprintf("worker %d: %s", w.index, d.Err))
			continue
		}
		if e := time.Duration(d.ElapsedNs); e > res.Elapsed {
			res.Elapsed = e
		}
		res.Add(d.Totals)
		res.LazyDials += d.LazyDials
		res.ConnsOpened += d.ConnsOpened
		res.PlannedPairs += d.PlannedPairs
	}
	if len(runErrs) > 0 {
		// A failed run aborts the engine mesh everywhere (the abort
		// closes the wire pairs, which every peer worker observes), and
		// a worker that refused the run closed its connections. So most
		// workers report a consequence, and any of them may hold the
		// cause: every report goes, in worker order.
		return nil, true, fmt.Errorf("cluster: run failed: %s", strings.Join(runErrs, "; "))
	}
	return res, false, nil
}

// recover drives the two-phase mesh rebuild: reset every worker (close
// conns, join pumps, clear the broken mark), then reconnect every
// worker. Resetting all before reconnecting any is what makes the
// redial safe — no worker can dial a peer that still considers the
// mesh broken and would refuse the registration.
func (c *Coordinator) recover() error {
	for _, w := range c.workers {
		if err := w.cc.send(msg{Type: "reset"}); err != nil {
			return &lostWorkerError{w.index, err}
		}
	}
	for _, w := range c.workers {
		if _, err := w.cc.expect("resetok", controlTimeout); err != nil {
			return &lostWorkerError{w.index, err}
		}
	}
	if err := c.connectAll(nil); err != nil {
		return err
	}
	c.resets++
	return nil
}

// Close shuts the cluster down: every worker is asked to close (and
// acknowledges), spawned processes are reaped, the control listener
// closes. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, w := range c.workers {
		w.cc.send(msg{Type: "close"})
	}
	for _, w := range c.workers {
		w.cc.expect("closed", controlTimeout)
	}
	c.teardown()
	return nil
}

// teardown closes connections and reaps spawned workers, escalating to
// Kill for any that outlive a grace period.
func (c *Coordinator) teardown() {
	for _, w := range c.workers {
		w.cc.c.Close()
	}
	c.ln.Close()
	for _, cmd := range c.procs {
		proc := cmd
		done := make(chan struct{})
		go func() {
			proc.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			proc.Process.Kill()
			<-done
		}
	}
}
