package tcp

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
)

// plannedPairs normalizes a directed link list, plus the links the
// barrier's tokens travel between the leader ranks (none on a
// single-process machine), into the sorted, deduplicated unordered peer
// pairs (a<b) the mesh must dial. A nil list plans the full mesh.
func plannedPairs(p int, links [][2]int, leaders []int) ([][2]int, error) {
	if links == nil {
		pairs := make([][2]int, 0, p*(p-1)/2)
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		return pairs, nil
	}
	pairs := make([][2]int, 0, len(links))
	for _, l := range links {
		a, b := l[0], l[1]
		if a < 0 || a >= p || b < 0 || b >= p {
			return nil, fmt.Errorf("tcp: planned link %d→%d outside machine of %d ranks", a, b, p)
		}
		pairs = appendPair(pairs, a, b)
	}
	for _, l := range engine.LeaderLinks(leaders) {
		pairs = appendPair(pairs, l[0], l[1])
	}
	return sortPairs(pairs), nil
}

// appendPair appends the unordered pair {a,b} as (min,max), unless a is
// b: self sends never touch a socket.
func appendPair(pairs [][2]int, a, b int) [][2]int {
	if a == b {
		return pairs
	}
	return append(pairs, [2]int{min(a, b), max(a, b)})
}

// sortPairs sorts pairs and drops the duplicates.
func sortPairs(pairs [][2]int) [][2]int {
	slices.SortFunc(pairs, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	return slices.Compact(pairs)
}

// missing returns the pairs of prog's links (Program.Facts) that lack a
// local endpoint — of every pair touching a local rank when prog is nil —
// sorted and deduplicated; nil, without allocating, when none does.
func (m *Machine) missing(prog *comm.Program) [][2]int {
	m.connMu.RLock()
	defer m.connMu.RUnlock()
	var out [][2]int
	if prog != nil {
		for _, l := range prog.Facts().Links {
			if !m.established(l[0], l[1]) {
				out = appendPair(out, l[0], l[1])
			}
		}
		return sortPairs(out)
	}
	for r := m.lo; r < m.hi; r++ {
		for q := range m.size {
			if !m.established(r, q) {
				out = appendPair(out, r, q)
			}
		}
	}
	return sortPairs(out)
}

// established reports whether every local endpoint of the pair {a,b} is
// installed (a remote endpoint is the owning worker's business). A pair
// that exchanges through memory is always established. Callers hold
// connMu.
func (m *Machine) established(a, b int) bool {
	if m.inMemory(a, b) {
		return true
	}
	return (!m.isLocal(a) || m.ends[a].conns[b] != nil) && (!m.isLocal(b) || m.ends[b].conns[a] != nil)
}

// addrOf resolves the listener address of rank dst: its own listener
// when local, the coordinator-distributed table otherwise.
func (m *Machine) addrOf(dst int) (string, error) {
	if m.isLocal(dst) {
		return m.listeners[dst].Addr().String(), nil
	}
	m.connMu.RLock()
	addr, ok := m.addrs[dst]
	m.connMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("tcp: no address known for remote rank %d", dst)
	}
	return addr, nil
}

// closeConns closes every connection endpoint; double closes are
// harmless, so abort, reconnect and Close may all call it.
func (m *Machine) closeConns() {
	m.connMu.Lock()
	for _, c := range m.conns {
		c.Close()
	}
	m.connCond.Broadcast()
	m.connMu.Unlock()
}

// closeListeners closes every local listener, which is what ends the
// acceptors (and, during setup, everything waiting on them).
func (m *Machine) closeListeners() {
	for _, ln := range m.listeners {
		if ln != nil {
			ln.Close()
		}
	}
}

// ConnectMesh dials this machine's share of the planned link set: every
// planned pair whose higher rank is local, resolving remote ranks
// through addrs (merged into the table kept from earlier calls; pass
// nil to reuse it, as coordinator-driven reconnects do). It returns
// once every planned pair touching the local range has both local
// endpoints installed. On failure the listeners are closed and the
// machine is dead.
func (m *Machine) ConnectMesh(ctx context.Context, addrs map[int]string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead != nil {
		return m.dead
	}
	if m.closed.Load() {
		return errors.New("tcp: ConnectMesh on closed machine")
	}
	if len(addrs) > 0 {
		m.connMu.Lock()
		if m.addrs == nil {
			m.addrs = make(map[int]string, len(addrs))
		}
		for r, a := range addrs {
			if !m.isLocal(r) {
				m.addrs[r] = a
			}
		}
		m.connMu.Unlock()
	}
	if err := m.connect(ctx, m.pairs); err != nil {
		return m.kill(fmt.Errorf("tcp: mesh connect failed: %w", err))
	}
	return nil
}

// ResetMesh tears the connections down and joins the pumps, clearing a
// broken mark, but keeps listeners, acceptors and the address table: the
// cluster coordinator resets every worker before reconnecting any, so a
// redial can never race a peer that still considers the mesh broken.
func (m *Machine) ResetMesh() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return errors.New("tcp: ResetMesh on closed machine")
	}
	m.dropConns()
	return nil
}

// reconnect rebuilds the planned link set — not the full mesh — over
// the still-open listeners after an abort closed the connections: the
// orphaned pumps are joined first so no stale goroutine can touch the
// new mesh, then exactly the pairs the machine was planned with are
// redialed (extras Prepare dialed in the previous life wait for the next
// Prepare that needs them).
func (m *Machine) reconnect(ctx context.Context) error {
	m.dropConns()
	if err := m.connect(ctx, m.pairs); err != nil {
		return err
	}
	m.reconnects.Add(1)
	return nil
}

// dropConns closes the connections, joins their pumps — marking the
// mesh broken first, which also makes pumps holding an early frame let
// go — and wipes the connection table, clearing the mark; the next
// connect repopulates it.
func (m *Machine) dropConns() {
	m.broken.Store(true)
	m.closeConns()
	m.pumps.Wait()
	m.connMu.Lock()
	m.conns = nil
	for _, e := range m.ends[m.lo:m.hi] {
		clear(e.conns)
	}
	m.connMu.Unlock()
	m.broken.Store(false)
}

// acceptLoop is rank j's persistent acceptor: it admits connections for
// the machine's lifetime — planned setup dials, reconnect redials and
// Prepare's dials all arrive here — and exits when the listener
// closes (Close, or a fatal setup failure).
func (m *Machine) acceptLoop(j int) {
	defer m.acceptors.Done()
	for {
		conn, err := m.listeners[j].Accept()
		if err != nil {
			return
		}
		// The handshake read can block for up to handshakeTimeout; admit
		// concurrently so one dead dialer cannot stall every other
		// connection to this rank.
		go m.admit(j, conn)
	}
}

// admit reads the dialer's rank announcement and registers the accepted
// endpoint. A connection that fails the handshake is dropped, not
// fatal: the dialer's own error path (or the setup wait's deadline)
// reports the failure with better attribution.
func (m *Machine) admit(j int, conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var hs [4]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	peer := int(int32(binary.BigEndian.Uint32(hs[:])))
	if peer < 0 || peer >= m.size || peer == j {
		conn.Close()
		return
	}
	if !m.register(j, peer, conn, false) {
		conn.Close()
	}
}

// register installs one connection endpoint in the table and starts its
// reader pump, broadcasting to anyone waiting for the pair to complete.
// It refuses — and the caller must close the connection — when the mesh
// is closed or broken (a racing teardown). Only a pair's higher rank
// ever dials, and only a pair lacking its endpoints, so a slot is never
// filled twice. dialed marks the dialing end, counted once per
// connection in ConnsOpened.
func (m *Machine) register(owner, peer int, conn net.Conn, dialed bool) bool {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	if m.closed.Load() || m.broken.Load() {
		return false
	}
	if dialed {
		m.connsOpened.Add(1)
	}
	m.ends[owner].conns[peer] = conn
	m.conns = append(m.conns, conn)
	m.pumps.Add(1)
	go m.pump(owner, peer, conn)
	m.connCond.Broadcast()
	return true
}

// setupFail records the first error of a connect and wakes its pair
// wait.
func (m *Machine) setupFail(err error) {
	m.connMu.Lock()
	if m.setupErr == nil {
		m.setupErr = err
	}
	m.connCond.Broadcast()
	m.connMu.Unlock()
}

// wake broadcasts connCond, so every wait on it rechecks its condition.
func (m *Machine) wake() {
	m.connMu.Lock()
	m.connCond.Broadcast()
	m.connMu.Unlock()
}

// dialRetry dials rank dst — the local listener's address, or the
// coordinator-distributed one for a remote rank — with the machine's
// retry/backoff policy, and announces src. It is the one dial path, and
// connect its one caller. ctxDone, when non-nil, cancels the backoff
// waits and the dial itself.
func (m *Machine) dialRetry(ctxDone <-chan struct{}, src, dst int) (net.Conn, error) {
	addr, err := m.addrOf(dst)
	if err != nil {
		return nil, err
	}
	var conn net.Conn
	for attempt := 0; ; attempt++ {
		var err error
		conn, err = m.dialCancelable(ctxDone, addr)
		if err == nil {
			break
		}
		if errors.Is(err, errDialCanceled) {
			return nil, fmt.Errorf("tcp: rank %d dial rank %d: canceled", src, dst)
		}
		if attempt+1 >= dialAttempts {
			return nil, fmt.Errorf("tcp: rank %d dial rank %d failed after %d attempts: %w", src, dst, dialAttempts, err)
		}
		if m.closed.Load() || m.broken.Load() {
			// The run aborted (or the machine closed) while we were
			// between attempts; a retry would outlive its purpose.
			return nil, fmt.Errorf("tcp: rank %d dial rank %d: machine torn down", src, dst)
		}
		select {
		case <-time.After(dialBackoff << attempt):
		case <-ctxDone:
			return nil, fmt.Errorf("tcp: rank %d dial rank %d: canceled", src, dst)
		}
	}
	var hs [4]byte
	binary.BigEndian.PutUint32(hs[:], uint32(int32(src)))
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(hs[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcp: rank %d handshake to %d: %w", src, dst, err)
	}
	conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

// errDialCanceled marks a dial abandoned because the caller's context
// ended while the connection attempt was in flight.
var errDialCanceled = errors.New("tcp: dial canceled")

// dialCancelable runs the machine's dialer but returns as soon as
// ctxDone fires, closing the late connection (if any) in the
// background — net dialers take no context, so a black-holed peer would
// otherwise pin the caller for the full OS connect timeout.
func (m *Machine) dialCancelable(ctxDone <-chan struct{}, addr string) (net.Conn, error) {
	if ctxDone == nil {
		return m.dial(addr)
	}
	type dialResult struct {
		conn net.Conn
		err  error
	}
	ch := make(chan dialResult, 1)
	go func() {
		c, err := m.dial(addr)
		ch <- dialResult{c, err}
	}()
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-ctxDone:
		go func() {
			if r := <-ch; r.conn != nil {
				r.conn.Close()
			}
		}()
		return nil, errDialCanceled
	}
}

// connect dials this machine's share of pairs — the planned set at setup
// and reconnect, the missing ones in Prepare: the higher rank dials
// (when it is local; a remote dialer's worker handles it), the
// persistent acceptors register the other end — and waits until every
// pair has its local endpoints installed. On failure the mesh is marked
// broken and its connections closed; the caller kills the machine or
// leaves the mesh for the next run to rebuild. Callers hold m.mu (or,
// for NewMachine, exclusive ownership of a machine nobody else has
// seen).
func (m *Machine) connect(ctx context.Context, pairs [][2]int) error {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
		// Cancellation wakes the pair wait, which reports it.
		stop := context.AfterFunc(ctx, m.wake)
		defer stop()
	}
	m.connMu.Lock()
	m.setupErr = nil
	m.connMu.Unlock()

	// Dial side: the higher rank of every pair dials the lower and
	// announces itself, one goroutine per dialing rank so connect latency
	// stays O(pairs/p), with retry and backoff for transient failures. On
	// a partial machine, only local dialers dial; pairs whose higher rank
	// lives in another process are that worker's job and land here
	// through the acceptors.
	byDialer := make([][]int, m.size)
	for _, pr := range pairs {
		if m.isLocal(pr[1]) {
			byDialer[pr[1]] = append(byDialer[pr[1]], pr[0])
		}
	}
	var wg sync.WaitGroup
	for i, peers := range byDialer {
		if len(peers) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, peers []int) {
			defer wg.Done()
			for _, j := range peers {
				conn, err := m.dialRetry(ctxDone, i, j)
				if err != nil {
					m.setupFail(err)
					return
				}
				if !m.register(i, j, conn, true) {
					conn.Close()
					m.setupFail(fmt.Errorf("tcp: rank %d dial rank %d: machine torn down while connecting", i, j))
					return
				}
			}
		}(i, peers)
	}
	wg.Wait()
	if err := m.waitPairs(ctx, pairs); err != nil {
		m.broken.Store(true)
		m.closeConns()
		return err
	}
	return nil
}

// waitPairs blocks until every pair has its local endpoints registered
// (the dialed end synchronously, the accepted end by the acceptor
// goroutines; a remote endpoint is the owning worker's business), a
// connect error is reported, ctx ends, or the handshake deadline
// expires.
func (m *Machine) waitPairs(ctx context.Context, pairs [][2]int) error {
	timer := time.AfterFunc(handshakeTimeout, m.wake)
	defer timer.Stop()
	deadline := time.Now().Add(handshakeTimeout)
	m.connMu.Lock()
	defer m.connMu.Unlock()
	idx := 0
	for {
		if m.setupErr != nil {
			return m.setupErr
		}
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("tcp: connect canceled: %w", ctx.Err())
		}
		for idx < len(pairs) && m.established(pairs[idx][0], pairs[idx][1]) {
			idx++
		}
		if idx == len(pairs) {
			return nil
		}
		if !time.Now().Before(deadline) {
			a, b := pairs[idx][0], pairs[idx][1]
			return fmt.Errorf("tcp: link %d–%d not established within %v", a, b, handshakeTimeout)
		}
		m.connCond.Wait()
	}
}

// pump reads frames off rank owner's end of its connection to peer for
// the machine's lifetime (or until the mesh breaks), handing current-
// epoch frames to the run in flight. A read error during a run is a
// mid-run connection failure (root cause, the run aborts); during Close
// or after an abort it is the expected teardown; between runs it marks
// the mesh broken so the next Prepare or Run rebuilds it.
func (m *Machine) pump(owner, peer int, conn net.Conn) {
	defer m.pumps.Done()
	rd := newFrameReader(conn, peer, owner, &m.reclaimed, m.core.RecycleMark())
	for {
		fr, epoch, err := rd.read()
		if err != nil {
			if m.closed.Load() || m.broken.Load() {
				return // session teardown or already-torn mesh
			}
			// The mesh is marked for rebuild before the pump looks for a
			// run: one armed before the mark fails here, one armed after
			// it sees the mark in Begin. Between runs nobody is blocked.
			m.broken.Store(true)
			if r := m.core.Current(); r != nil {
				r.Fail(owner, fmt.Errorf("tcp: connection %d→%d failed: %w", peer, owner, err))
			}
			return
		}
		// A cluster worker that started first may send a frame of a run
		// this machine has not armed yet.
		if int32(epoch-m.epoch.Load()) > 0 {
			m.hold(epoch)
		}
		// A frame from an earlier run (late or replayed) is dropped here
		// by its epochs — next too, as the core may already show the next
		// run before Begin — or by the core if its run ended meanwhile.
		if r := m.core.Current(); r != nil && epoch == m.epoch.Load() && epoch == m.next.Load() {
			r.Push(owner, peer, fr)
		}
	}
}

// hold parks a pump, and with it its connection, on a frame of a newer
// epoch than the one armed until Begin arms it or the mesh is torn down
// (closed or broken, then closeConns), which leaves the frame stale.
func (m *Machine) hold(epoch uint32) {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	for int32(epoch-m.epoch.Load()) > 0 && !m.closed.Load() && !m.broken.Load() {
		m.connCond.Wait()
	}
}
