package cluster

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/tcp"
)

// Spec describes the cluster to stand up: how many workers share the
// p ranks, how to obtain the worker processes, and the engine setup
// options every worker must agree on.
type Spec struct {
	// Workers is the number of worker processes; each receives a
	// contiguous near-equal rank range (plan.WorkerRanges).
	Workers int
	// P is the mesh's processor count.
	P int
	// Links, when non-nil, is the planned directed link set (typically
	// plan.Routes output); the coordinator adds the barrier's links
	// between the workers' leader ranks and partitions the union by
	// worker. nil plans the full mesh.
	Links [][2]int
	// WorkerCmd, when non-nil, is the argv of the worker command to
	// spawn (the coordinator appends nothing; the address travels in
	// WorkerEnv). nil spawns the coordinator's own binary re-executed —
	// any main that calls MaybeWorker works.
	WorkerCmd []string
	// Adopt disables spawning: the coordinator waits for Workers
	// externally started workers (pointed at ControlAddr via their
	// -coord flag or WorkerEnv) to dial in.
	Adopt bool
	// ControlAddr is the coordinator's control listener address.
	// Empty means an ephemeral loopback port — fine for spawned
	// workers, which inherit the address; adopted workers need a
	// well-known one.
	ControlAddr string
	// AdoptTimeout bounds the wait for workers to dial in (spawned or
	// adopted); 0 means controlTimeout.
	AdoptTimeout time.Duration
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
	nInter  int // inter-worker links in the partitioned plan
	closed  bool
	dead    error
}

// workerHandle is the coordinator's view of one worker process.
type workerHandle struct {
	cc    *conn
	index int
	pid   int
	lo    int
	hi    int
}

// Result aggregates one cluster run: elapsed is the slowest worker's
// algorithm phase, Procs merges every worker's local stats (sorted by
// rank, all p present), and the dial counters sum the workers'.
type Result struct {
	Elapsed time.Duration
	Procs   []tcp.ProcStats
	// LazyDials sums the workers' lifetime on-demand dial counts: zero
	// means the partitioned route plan covered every link every
	// schedule used so far.
	LazyDials int
	// ConnsOpened and PlannedPairs sum the workers' per-machine
	// counters. An inter-worker pair is planned by both endpoints'
	// machines (so it counts twice in PlannedPairs) but dialed once —
	// by the higher rank, as within a process — so ConnsOpened counts
	// each established connection exactly once.
	ConnsOpened  int
	PlannedPairs int
}

// Start stands the cluster up: listen, spawn (or await) the workers,
// assign rank ranges and partitioned link plans, collect listener
// addresses, and drive every worker's mesh connect. On return every
// planned pair — in-process and wire — is established.
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
	// Partition the link plan by worker up front; a bad plan should
	// fail before any process is spawned. The barrier's cross-process
	// tokens travel between the leaders, whatever the schedule: plan
	// those links too, so no partition costs a lazy dial.
	var workerLinks [][][2]int
	nInter := 0
	if spec.Links != nil {
		planned := make(map[[2]int]bool, len(spec.Links))
		for _, l := range spec.Links {
			planned[l] = true
		}
		links := spec.Links[:len(spec.Links):len(spec.Links)]
		for _, l := range engine.LeaderLinks(leaders) {
			if !planned[l] {
				planned[l] = true
				links = append(links, l)
			}
		}
		intra, inter, err := plan.Partition(links, ranges)
		if err != nil {
			return nil, err
		}
		nInter = len(inter)
		workerLinks = make([][][2]int, spec.Workers)
		for w := range ranges {
			workerLinks[w] = plan.WorkerLinks(intra, inter, ranges, w)
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
	if err := c.bootstrap(workerLinks); err != nil {
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

// InterLinks reports how many planned links cross worker boundaries
// (0 when the cluster was started without a link plan).
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
	argv := c.spec.WorkerCmd
	if argv == nil {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("cluster: resolve own binary for worker spawn: %w", err)
		}
		argv = []string{exe}
	}
	for i := 0; i < c.spec.Workers; i++ {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Env = append(os.Environ(), WorkerEnv+"="+c.ControlAddr())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("cluster: spawn worker %d: %w", i, err)
		}
		c.procs = append(c.procs, cmd)
	}
	return nil
}

func (c *Coordinator) bootstrap(workerLinks [][][2]int) error {
	if !c.spec.Adopt {
		if err := c.spawn(); err != nil {
			return err
		}
	}
	wait := c.spec.AdoptTimeout
	if wait <= 0 {
		wait = controlTimeout
	}
	deadline := time.Now().Add(wait)
	for i := 0; i < c.spec.Workers; i++ {
		c.ln.(*net.TCPListener).SetDeadline(deadline)
		nc, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: %d of %d workers connected: %w", i, c.spec.Workers, err)
		}
		w := &workerHandle{cc: newConn(nc), index: i, lo: c.ranges[i][0], hi: c.ranges[i][1]}
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
			Index: w.index, P: c.spec.P, Lo: w.lo, Hi: w.hi, Workers: c.spec.Workers,
			FullMesh:   c.spec.Links == nil,
			Leaders:    c.leaders,
			ListenHost: c.spec.ListenHost,
		}
		if workerLinks != nil {
			a.Links = workerLinks[w.index]
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
		if err := w.cc.send(msg{Type: "run", Run: &rs}); err != nil {
			return nil, false, &lostWorkerError{w.index, err}
		}
	}
	// Bounded by the run's own deadline plus slack when one is set;
	// unbounded like the engine otherwise.
	doneTimeout := time.Duration(0)
	if rs.RunTimeoutNs > 0 {
		doneTimeout = time.Duration(rs.RunTimeoutNs) + controlTimeout
	}
	res := &Result{Procs: make([]tcp.ProcStats, c.spec.P)}
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
		if err := mergeProcs(res.Procs, d.Procs, w.lo, w.hi); err != nil {
			return nil, false, &lostWorkerError{w.index, err}
		}
		if e := time.Duration(d.ElapsedNs); e > res.Elapsed {
			res.Elapsed = e
		}
		res.LazyDials += d.LazyDials
		res.ConnsOpened += d.ConnsOpened
		res.PlannedPairs += d.PlannedPairs
	}
	if len(runErrs) > 0 {
		// A failed run aborts the engine mesh everywhere (the abort
		// closes the wire pairs, which every peer worker observes), and
		// a worker that refused the run closed its connections.
		return nil, true, fmt.Errorf("cluster: run failed: %s", runErrs[0])
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
