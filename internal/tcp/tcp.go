// Package tcp executes an algorithm over real TCP sockets: every
// processor owns a loopback listener, peers are connected with one TCP
// connection per processor pair — the planned pairs at setup (the full
// O(p²) mesh when Options.Links is nil), then whatever pairs each run's
// program adds — and messages travel as length-prefixed frames. It is the
// distributed-transport engine of the repro hint ("channels/gRPC
// approximation" of MPI): where internal/live approximates message
// passing with in-process mailboxes, this engine moves every byte
// through the kernel's network stack, exercising the same algorithm code
// over a transport with real serialization.
//
// The package is the sockets transport of internal/engine: the run
// lifecycle, Send/Recv/Barrier, deadlines, abort and failure
// classification are the core's and are documented there, identical to
// the live engine's. What lives here is the wire — the frame codec
// (frame.go), the mesh of listeners, dialed connections and reader
// pumps (mesh.go) — and the machine that owns it (this file). A cluster
// worker is the same transport with a rank range: NewWorkerMachine owns
// [lo,hi) of the mesh, its own ranks exchange through memory, and it
// dials its share of the pairs that cross workers; the core's barrier
// then adds a token exchange between the workers' leader ranks over
// those sockets.
//
// # Sessions
//
// Building the machine is expensive — p listeners, dialed connections
// with handshakes and retry, and one reader pump per connection end — so
// the engine separates setup from execution. NewMachine stands the
// listeners and the planned pairs up once; Machine.Prepare dials, before
// a run, the pairs its program needs and the mesh lacks; Machine.Run
// executes one algorithm over the warm connections and may be called
// many times back to back; Machine.Close tears everything down. A
// session planned with the empty list therefore holds exactly the pairs
// its runs have used, dialed once each.
//
// A run's received bytes are the caller's until it reclaims them:
// Reclaim(epoch) lets the reader pumps decode the next run's frames into
// the storage of that run instead of fresh buffers (arena.go), so a
// session that hands every run back allocates almost nothing for the
// bytes it receives, and one that never does allocates them afresh. The
// part arrays frames and ranks build are dead sooner, once the run's
// bundles are copied out: Recycle hands them to the next run.
//
// Run isolation is by epoch: every frame carries the epoch of the run
// that sent it, the reader pumps discard older epochs (and frames
// between runs) and hold newer ones until their run arms, and the core
// drops anything quoting a run no longer in flight. A broadcast that
// aborts — panic, injected kill, deadline — can therefore never leak a
// frame or a stale barrier token into the next run.
//
// An abort closes the mesh; the session survives it. The next Prepare
// or Run notices the damage, joins the orphaned reader pumps, and
// redials the planned link set over the still-open listeners (counted in
// Reconnects), so a killed connection costs one failed run plus one
// reconnect, not the session; the pairs Prepare added are dialed again
// by the next Prepare that needs them.
//
// # Sparse mesh
//
// The paper's algorithms send along a schedule's logical links, a set
// that grows like p·log p — not p². The schedules are oblivious, so a
// run's links are known before it starts: Prepare reads them off the
// run's comm.Program and dials, through the setup path, every pair the
// mesh lacks (counted in LazyDials). One shared TCP connection per peer
// pair multiplexes both directions (and every logical link between that
// pair). Options.Links (a setup field) is a prefetch: it lists directed
// (src,dst) links whose pairs NewMachine dials up front, so their runs'
// Prepare finds nothing missing; it never changes what runs. Every pair
// is dialed by its higher rank and registered at both ends before
// anything moves, so a pair has exactly one connection. Run itself never
// dials: a send over a pair nobody dialed fails the run, naming both
// ranks.
//
// # Worker machines (cluster partitioning)
//
// NewWorkerMachine builds the partial machine one cluster worker
// process owns: listeners, ranks and reader pumps for a contiguous rank
// range [lo,hi) only, with Options.ListenHost choosing the bind
// address. Two cost classes, as in an MPI library that uses shared
// memory between ranks on one node: a message between two of the
// worker's own ranks goes through memory (the core's copying local
// path, as a self-send does) and never touches a socket, and only pairs
// with one rank inside the range and one outside get a connection. Its
// planned pairs are those crossing its range among Options.Links plus
// the links between the workers' leader ranks, which the barrier's
// tokens travel; the machine adds those itself. The coordinator
// (internal/cluster) collects every worker's LocalAddrs, distributes the
// merged rank→address map, and drives ConnectMesh so each planned pair
// is dialed by the worker owning its higher rank — the same frame
// protocol, handshake and registration path as the single-process mesh,
// now across OS processes. Prepare splits a run's missing cross-worker
// pairs the same way: each worker dials those whose higher rank it owns
// and waits for its endpoints of the rest; a pair inside the range is
// never missing. Workers run on a common coordinator-assigned
// Options.Epoch and start unsynchronized: a pump holds a frame of an
// epoch its machine has not armed yet (and TCP flow control the rest).
// A broken mesh is rebuilt by the coordinator (ResetMesh then
// ConnectMesh on every worker), never by one worker on its own, which
// closes its connections when it refuses a run.
//
// # Failure semantics
//
// On top of the core's (a panicking rank, a Recv or Barrier wait past
// RecvTimeout, a canceled context, the run past RunTimeout):
//
//   - A connection fails mid-run: the affected receiver reports the
//     broken link as the root cause; everyone else unwinds. A connection
//     closing during teardown (Close) or between runs is not an error —
//     the next Prepare or Run rebuilds the mesh.
//   - A transient dial failure during setup or Prepare is retried: 3
//     attempts per peer, 10 ms apart, the wait doubling each time. A
//     setup dial that still fails is fatal to the machine; a Prepare
//     dial that fails, or whose context ends, fails that run only: the
//     mesh is marked broken and the next Prepare or Run rebuilds it.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/obs"
)

const (
	// dialAttempts is the number of connection attempts per peer; a
	// failed attempt waits dialBackoff before the next, doubling each
	// time.
	dialAttempts = 3
	dialBackoff  = 10 * time.Millisecond
	// handshakeTimeout bounds the rank-announcement read so a dialer
	// dying between connect and handshake cannot hang setup.
	handshakeTimeout = 10 * time.Second
)

// Options configure a machine and harden its runs. The zero value means
// the full mesh on loopback (what a bare machine run without Prepare
// needs), no deadlines and no cancellation.
//
// The fields split by lifetime: NewMachine consumes the setup fields
// (Links, ListenHost, plus Context to cancel setup) and remembers them
// for mesh rebuilds; Machine.Run consumes the run fields (Context,
// RunTimeout, RecvTimeout, Tracer, Epoch) afresh on every call.
type Options struct {
	// Context, RunTimeout, RecvTimeout and Tracer are the core's run
	// options (see engine.Options). Context also cancels setup's dials
	// and backoff waits, and a mesh rebuild Run starts; Prepare takes a
	// context of its own.
	Context     context.Context
	RunTimeout  time.Duration
	RecvTimeout time.Duration
	Tracer      obs.Tracer
	// Links, when non-nil, lists the directed logical (src,dst) links to
	// dial up front (a setup field, remembered for mesh rebuilds):
	// NewMachine materializes one shared TCP connection per unordered
	// peer pair they name, plus the leader links a worker machine's
	// barrier needs. Self links are ignored, and so are a worker
	// machine's links between two of its own ranks, which exchange
	// through memory; out-of-range ranks are a setup error. Prepare
	// dials, before a run, the pairs its program uses that the plan
	// lacked (counted in LazyDials), so Links never changes what runs,
	// only what is paid for up front. An empty non-nil slice prefetches
	// nothing (every run's pairs are dialed by its Prepare); nil dials
	// the full O(p²) mesh — on a worker machine, every pair crossing its
	// range.
	Links [][2]int
	// ListenHost is the host the machine's listeners bind to (a setup
	// field). Empty means loopback-only "127.0.0.1"; cluster workers that
	// must be reachable from other hosts set it to an externally visible
	// address. The bound host is also what LocalAddrs advertises to the
	// coordinator.
	ListenHost string
	// Epoch, when nonzero, is the run's frame epoch (a run field). The
	// cluster coordinator assigns one common epoch to every worker's
	// run so frames demultiplex consistently across processes; zero
	// keeps the machine's own auto-incremented epoch.
	Epoch uint32

	// dial, when set, replaces the machine's dialer (a setup field; the
	// package's tests inject failing or stalling dialers through it).
	dial func(ctx context.Context, addr string) (net.Conn, error)
}

// dialTCP is the machine's default dialer.
func dialTCP(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// The run-facing types are the core's: a Proc is one rank's comm.Comm
// handle, a Result the run's elapsed time and its local ranks' operation
// counts summed (every rank on a single-process machine, the local range
// on a cluster worker, which reports the sum to the coordinator).
type (
	Proc   = engine.Proc
	Result = engine.Result
)

// endpoint is one local rank's side of the mesh.
type endpoint struct {
	// conns[peer] is nil at the own rank and on pairs not dialed yet (a
	// sparse plan's gaps until Prepare fills them); guarded by
	// Machine.connMu — senders read under the read lock, registration
	// writes under the write lock.
	conns []net.Conn
	// wmu[peer] serializes frame writes onto conns[peer]: the rank's own
	// sends and, on a leader, the barrier tokens another local rank sends
	// on its behalf.
	wmu []sync.Mutex
}

// Machine is a persistent TCP machine: listeners with persistent
// acceptors, a dialed mesh — the planned pairs, grown by every Prepare —
// and one reader pump per connection end, built once by NewMachine and
// reused by every Run. Close tears it down. Prepare, Run and Close
// serialize; a Machine supports one run at a time.
type Machine struct {
	core *engine.Machine
	size int
	// lo/hi bound the contiguous rank range this process owns: [0,size)
	// for a single-process machine, a worker's slice for a cluster
	// partial machine (NewWorkerMachine). listeners and ends are indexed
	// by rank and nil outside [lo,hi).
	lo, hi int
	// worker marks a cluster worker's machine (NewWorkerMachine, even one
	// owning every rank): a message between two of its own ranks goes
	// through memory, and only pairs crossing [lo,hi) get a socket.
	worker    bool
	mu        sync.Mutex // serializes Prepare, Run, Close and mesh rebuilds
	listeners []net.Listener
	ends      []*endpoint
	pumps     sync.WaitGroup
	acceptors sync.WaitGroup

	// closed marks teardown (Close, or a failed mesh build, which also
	// sets dead); broken marks a damaged mesh — an abort, a failed
	// Prepare or a between-runs connection failure closed the
	// connections, and the next Prepare or Run rebuilds it. The pumps
	// read both to tell a failure from a teardown.
	closed atomic.Bool
	broken atomic.Bool
	dead   error // why the machine is beyond repair, under mu

	// connMu guards the connection table — conns (the flat list of every
	// live endpoint, for teardown) and each endpoint's per-peer conns.
	// Registration happens under the write lock while the mesh connects
	// (setup, reconnect, Prepare); the send/pump hot paths read through
	// the read lock. connCond (on the write lock) is broadcast on every
	// registration, state change and teardown so a connect can wait for
	// both endpoints of a pair to be installed, and on every armed epoch
	// for pumps holding an early frame.
	connMu   sync.RWMutex
	connCond *sync.Cond
	conns    []net.Conn

	// dial connects to a listener address; ctx ends an attempt in flight.
	dial func(ctx context.Context, addr string) (net.Conn, error)
	// addrs maps remote ranks (outside [lo,hi)) to their listener
	// addresses, distributed by the cluster coordinator before
	// ConnectMesh; guarded by connMu. Local ranks resolve through their
	// own listeners.
	addrs map[int]string

	// pairs is the planned link set as sorted unordered peer pairs
	// (a<b), leader links included: every pair in it is dialed at setup
	// and redialed on reconnect; anything else waits for a Prepare.
	pairs [][2]int
	// connsOpened counts TCP connections dialed over the machine's
	// lifetime (setup, Prepare and reconnect dials; one per connection,
	// not per endpoint).
	connsOpened atomic.Int64
	// lazyDials counts the pairs dialed before a run because the plan
	// lacked them (Prepare's dials). A cluster run that stays at zero
	// proves the plan covered every link the schedule used.
	lazyDials  atomic.Int64
	setupErr   error // first setup failure, under connMu
	reconnects atomic.Int64

	// epoch is the last run armed: it stamps that run's frames; pumps
	// hold newer ones. next is the epoch Run chose before the core armed
	// the run, published as epoch by Begin under connMu. Pumps deliver
	// only frames stamped with both.
	epoch atomic.Uint32
	next  atomic.Uint32
	// reclaimed is Reclaim's mark on the last run whose received bytes
	// were handed back: the reader pumps read it on the first frame of
	// each newer run to reuse that run's storage.
	reclaimed comm.Mark
}

// transport is the machine as the core sees it (engine.Transport).
type transport struct{ m *Machine }

// Deliver frames msg onto the src–dst pair's socket stamped with the
// run's epoch: one Write (or vectored WriteTo) through pooled scratch. It
// never dials: a pair nobody dialed before the run fails the send. On a
// worker machine a message to another local rank takes the core's
// in-memory path instead, as a self-send does.
func (t transport) Deliver(r *engine.Run, src, dst int, msg comm.Message, shared bool) error {
	m := t.m
	if m.inMemory(src, dst) {
		r.Local(src, dst, msg, shared)
		return nil
	}
	m.connMu.RLock()
	conn := m.ends[src].conns[dst]
	m.connMu.RUnlock()
	if conn == nil {
		return fmt.Errorf("tcp: no connection between ranks %d and %d: the pair was not dialed before the run", src, dst)
	}
	sc := getScratch()
	wmu := &m.ends[src].wmu[dst]
	wmu.Lock()
	err := writeFrameTo(conn, m.epoch.Load(), msg, sc)
	wmu.Unlock()
	putScratch(sc)
	return err
}

// Begin publishes the armed epoch — the mailboxes accept the run, no
// rank has started — and releases the pumps holding its early frames.
func (t transport) Begin() {
	m := t.m
	m.connMu.Lock()
	m.epoch.Store(m.next.Load())
	m.connCond.Broadcast()
	m.connMu.Unlock()
	// A connection that died after Run's repair looked, but before the
	// run was armed, failed no run: this one fails instead of waiting
	// on it.
	if m.broken.Load() {
		m.core.Current().Fail(m.lo, errors.New("tcp: a connection failed before the run started"))
	}
}

// Abort marks the mesh broken and closes every connection, so readers
// and writers blocked on a socket unwind.
func (t transport) Abort() {
	t.m.broken.Store(true)
	t.m.closeConns()
}

// Close tears the mesh down: listeners and connections are closed and
// the reader pumps and acceptors joined.
func (t transport) Close() error {
	m := t.m
	m.closed.Store(true)
	m.closeListeners()
	m.closeConns()
	m.pumps.Wait()
	m.acceptors.Wait()
	return nil
}

// NewMachine listens on p loopback ports, dials the planned link set —
// the pairs Options.Links names, the full mesh when it is nil — and
// starts the reader pumps. Only the setup fields of opts
// are consumed; they are remembered for mesh rebuilds after an abort.
// The caller owns the machine and must Close it.
func NewMachine(p int, opts Options) (*Machine, error) {
	m, err := newMachine(p, 0, p, []int{0}, false, opts)
	if err != nil {
		return nil, err
	}
	if err := m.connect(opts.Context, m.pairs); err != nil {
		m.core.Close()
		return nil, err
	}
	return m, nil
}

// NewWorkerMachine builds the partial machine a cluster worker owns:
// listeners, ranks and acceptors for the contiguous rank range [lo,hi)
// of a p-rank mesh, but no connections yet — the coordinator first
// collects every worker's LocalAddrs, then drives ConnectMesh with the
// merged rank→address map. leaders lists the lowest rank of every
// worker's range, ascending (lo among them): Barrier synchronises across
// processes through those ranks, so the machine adds engine.LeaderLinks
// to the planned link set (Options.Links, or the full mesh when nil).
// That set is filtered to the pairs crossing [lo,hi) — one rank inside,
// one outside; the worker dials exactly those whose higher rank is
// local. A pair inside [lo,hi) exchanges through memory: it is never
// planned, dialed by Prepare or rebuilt, and the rule holds for a worker
// owning every rank too.
//
// A message between two local ranks (or a self-send) takes the core's
// in-memory path: a compiled program's message arrives as the sender's
// part array and bytes, shared (engine.Proc.SendShared), any other as a
// copy. Frames from other workers are decoded into storage of their
// own, as on every machine.
func NewWorkerMachine(p, lo, hi int, leaders []int, opts Options) (*Machine, error) {
	if lo < 0 || hi > p || lo >= hi {
		return nil, fmt.Errorf("tcp: worker rank range [%d,%d) outside machine of %d ranks", lo, hi, p)
	}
	w := sort.SearchInts(leaders, lo)
	if !sort.IntsAreSorted(leaders) || w == len(leaders) || leaders[w] != lo || leaders[0] < 0 || leaders[len(leaders)-1] >= p {
		return nil, fmt.Errorf("tcp: worker range [%d,%d) of %d ranks is not led by one of the leader ranks %v", lo, hi, p, leaders)
	}
	return newMachine(p, lo, hi, leaders, true, opts)
}

// newMachine allocates the machine, binds the local ranks' listeners
// and starts their persistent acceptors; it does not connect.
func newMachine(p, lo, hi int, leaders []int, worker bool, opts Options) (*Machine, error) {
	if p <= 0 {
		return nil, fmt.Errorf("tcp: non-positive processor count %d", p)
	}
	pairs, err := plannedPairs(p, opts.Links, leaders)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		size: p, lo: lo, hi: hi, worker: worker,
		listeners: make([]net.Listener, p), ends: make([]*endpoint, p),
		dial: opts.dial,
	}
	if m.dial == nil {
		m.dial = dialTCP
	}
	host := opts.ListenHost
	if host == "" {
		host = "127.0.0.1"
	}
	m.connCond = sync.NewCond(&m.connMu)
	// A partial machine only dials and waits for the pairs that touch
	// its own rank range; the rest belong to other workers. A worker's
	// pairs inside its range exchange through memory.
	for _, pr := range pairs {
		if (m.isLocal(pr[0]) || m.isLocal(pr[1])) && !m.inMemory(pr[0], pr[1]) {
			m.pairs = append(m.pairs, pr)
		}
	}
	for i := lo; i < hi; i++ {
		ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
		if err != nil {
			m.closeListeners()
			return nil, fmt.Errorf("tcp: listen for rank %d: %w", i, err)
		}
		m.listeners[i] = ln
		m.ends[i] = &endpoint{conns: make([]net.Conn, p), wmu: make([]sync.Mutex, p)}
	}
	m.core = engine.New("tcp", p, lo, hi, leaders, transport{m})
	// Persistent acceptors: every local rank keeps accepting for the
	// machine's lifetime, so planned setup, reconnects and Prepare's
	// dials all land on the same registration path. They exit when the
	// listeners close (Close, or a fatal setup failure).
	for j := lo; j < hi; j++ {
		m.acceptors.Add(1)
		go m.acceptLoop(j)
	}
	return m, nil
}

// isLocal reports whether rank r lives in this process.
func (m *Machine) isLocal(r int) bool { return r >= m.lo && r < m.hi }

// inMemory reports whether the pair {a,b} exchanges through memory: both
// ranks are a worker machine's own.
func (m *Machine) inMemory(a, b int) bool { return m.worker && m.isLocal(a) && m.isLocal(b) }

// partial reports whether the machine owns only a slice of the mesh.
func (m *Machine) partial() bool { return m.lo != 0 || m.hi != m.size }

// LocalAddrs returns the listener address of every local rank — what a
// cluster worker reports to the coordinator for the merged rank→address
// map.
func (m *Machine) LocalAddrs() map[int]string {
	addrs := make(map[int]string, m.hi-m.lo)
	for i := m.lo; i < m.hi; i++ {
		addrs[i] = m.listeners[i].Addr().String()
	}
	return addrs
}

// LazyDials reports how many pairs the machine has dialed before a run
// because the plan lacked them (Prepare's dials), over its lifetime.
// Zero means the plan covered every link the schedules used; on a
// worker machine only cross-worker pairs count, as a worker's own pairs
// exchange through memory and are never dialed.
func (m *Machine) LazyDials() int { return int(m.lazyDials.Load()) }

// Reconnects reports how many times the mesh has been rebuilt after an
// abort or a between-runs connection failure. It is safe to call at any
// time, including concurrently with a run in flight — it reads an atomic
// counter and never waits on the machine's run lock.
func (m *Machine) Reconnects() int { return int(m.reconnects.Load()) }

// ConnsOpened reports how many TCP connections the machine has dialed
// over its lifetime — planned setup, reconnect rebuilds and Prepare's
// dials, one count per connection (not per endpoint). Straight after
// NewMachine this equals the planned pair count. Safe to call at any
// time.
func (m *Machine) ConnsOpened() int { return int(m.connsOpened.Load()) }

// PlannedPairs reports how many unordered peer pairs the machine dials
// at setup (and redials on reconnect): the pairs of Options.Links,
// p(p−1)/2 on a full mesh. A worker machine counts only the pairs of
// Options.Links and the leader links that cross its range — its own
// ranks exchange through memory.
func (m *Machine) PlannedPairs() int { return len(m.pairs) }

// Epoch returns the epoch of the last run the machine armed: right after
// Run returns, the run it ran, which is what Reclaim names.
func (m *Machine) Epoch() uint32 { return m.epoch.Load() }

// Reclaim hands the storage the run of epoch received into back to the
// machine: the reader pumps decode the next run's frames into the same
// buffers, in the order that run was given them, so the caller must not
// read that run's messages, or any slice of them, after the call. It
// takes effect only while epoch is the last run armed; once a later run
// has armed it is a no-op, and the storage stays the caller's, for the
// GC. Calling it twice is harmless, and so is calling it from any
// goroutine.
func (m *Machine) Reclaim(epoch uint32) {
	// Begin arms a run under connMu, so the mark lands either before the
	// next run arms or not at all.
	m.connMu.Lock()
	defer m.connMu.Unlock()
	if m.epoch.Load() == epoch {
		m.reclaimed.Set(epoch)
	}
}

// Recycle marks the last run's part arrays dead (engine.Machine.Recycle):
// the ranks' and the reader pumps' alike are handed to the next run
// again. Its bytes stay the caller's until Reclaim. Call it between
// runs, once the run's bundles are copied out or checked.
func (m *Machine) Recycle() { m.core.Recycle() }

// Close tears the machine down. It is idempotent; a run must not be in
// flight.
func (m *Machine) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.core.Close()
}

// kill closes a machine whose mesh could not be (re)built and records
// why: every later call reports err. Callers hold mu.
func (m *Machine) kill(err error) error {
	m.dead = err
	m.core.Close()
	return err
}

// repair readies the mesh for a run, rebuilding it if an abort, a failed
// Prepare or a between-runs connection failure damaged it. Callers hold
// mu.
func (m *Machine) repair(ctx context.Context) error {
	if m.dead != nil {
		return m.dead
	}
	if !m.broken.Load() || m.closed.Load() {
		return nil
	}
	if m.partial() {
		// A worker must never redial on its own: its peers may still
		// consider the mesh broken and refuse registrations. The
		// coordinator resets every worker, reconnects every worker, then
		// retries the run; closing the rest now fails fast the peers that
		// already started it.
		m.closeConns()
		return errors.New("tcp: mesh broken; awaiting coordinator reset")
	}
	if err := m.reconnect(ctx); err != nil {
		return m.kill(fmt.Errorf("tcp: mesh rebuild failed: %w", err))
	}
	return nil
}

// Prepare dials, before a run, every pair that prog's local ranks send or
// receive over and the mesh lacks — every pair touching a local rank when
// prog is nil (an algorithm without a program) — through the setup path,
// first rebuilding a damaged mesh as Run does. A worker machine's pairs
// inside its range exchange through memory and are never missing. Those
// dials count in LazyDials and are not part of the plan a reconnect
// rebuilds. A mesh that already holds every pair the run needs allocates
// nothing. A dial that fails, or whose ctx ends, fails the run about to
// start, not the machine: the mesh is marked broken for the next Prepare
// or Run to rebuild (a cluster worker's coordinator resets it).
func (m *Machine) Prepare(ctx context.Context, prog *comm.Program) error {
	if prog != nil && prog.P() != m.size {
		return fmt.Errorf("tcp: program for %d ranks on a machine of %d", prog.P(), m.size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.repair(ctx); err != nil {
		return err
	}
	missing := m.missing(prog)
	if len(missing) == 0 {
		return nil
	}
	before := m.connsOpened.Load()
	err := m.connect(ctx, missing)
	m.lazyDials.Add(m.connsOpened.Load() - before)
	return err
}

// Run executes fn on every local rank over the warm mesh, rebuilding it
// first if a previous run's abort damaged it. Only the run fields of
// opts are consumed; each call may pass different ones. A failure on any
// rank aborts the run and is returned as an error; the machine remains
// usable — the next Run reconnects.
func (m *Machine) Run(opts Options, fn func(*Proc)) (Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.repair(opts.Context); err != nil {
		return Result{}, err
	}
	next := opts.Epoch
	if next == 0 {
		next = m.epoch.Load() + 1
	}
	m.next.Store(next)
	return m.core.Run(engine.Options{
		Context: opts.Context, RunTimeout: opts.RunTimeout,
		RecvTimeout: opts.RecvTimeout, Epoch: next, Tracer: opts.Tracer,
	}, fn)
}
