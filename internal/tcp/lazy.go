package tcp

import (
	"context"
	"fmt"
	"net"
	"time"
)

// link returns local rank src's connection to dst, dialing it on demand
// when the machine's planned link set did not include it. The fast path
// is one read-locked table load; the slow path is the lazy dial, bounded
// by the run's context.
func (m *Machine) link(ctx context.Context, src, dst int) (net.Conn, error) {
	m.connMu.RLock()
	c := m.ends[src].conns[dst]
	m.connMu.RUnlock()
	if c != nil {
		return c, nil
	}
	return m.ensureLink(ctx, src, dst)
}

// lazyCall is one in-flight lazy dial: later requests for the same
// unordered pair (either direction) wait on done instead of dialing a
// duplicate, then pick the winner's connection out of the table.
type lazyCall struct {
	done chan struct{}
	err  error
}

// ensureLink opens the connection for an unplanned (src,dst) link on
// demand: the sparse mesh's correctness fallback. Dials are serialized
// per unordered pair — not machine-wide, so one unreachable peer never
// head-of-line-blocks unrelated lazy dials — and the dialer waits until
// the acceptor's endpoint is registered too, so two ranks racing to
// open the same pair (or the reverse direction of it) always converge
// on one connection. ctx, normally the run's context, bounds the whole
// affair: a canceled run returns promptly instead of sitting out
// handshakeTimeout.
func (m *Machine) ensureLink(ctx context.Context, src, dst int) (net.Conn, error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	key := [2]int{src, dst}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	for {
		m.connMu.RLock()
		c := m.ends[src].conns[dst]
		m.connMu.RUnlock()
		if c != nil {
			return c, nil // a racing dial (either direction) won
		}
		if m.closed.Load() || m.broken.Load() {
			return nil, fmt.Errorf("tcp: lazy dial %d→%d: machine torn down", src, dst)
		}
		m.lazyMu.Lock()
		call := m.lazyInflight[key]
		if call == nil {
			call = &lazyCall{done: make(chan struct{})}
			m.lazyInflight[key] = call
			m.lazyMu.Unlock()
			conn, err := m.lazyDial(ctxDone, src, dst)
			m.lazyMu.Lock()
			delete(m.lazyInflight, key)
			m.lazyMu.Unlock()
			call.err = err
			close(call.done)
			return conn, err
		}
		m.lazyMu.Unlock()
		select {
		case <-call.done:
		case <-ctxDone:
			return nil, fmt.Errorf("tcp: lazy dial %d→%d: run canceled: %w", src, dst, ctx.Err())
		}
		if call.err != nil {
			// The pair's in-flight dial just failed; piling a retry storm
			// of our own onto the same dead peer helps nobody.
			return nil, fmt.Errorf("tcp: lazy dial %d→%d: %w", src, dst, call.err)
		}
		// The winner (either direction) registered the connection; loop
		// to pick it out of the table.
	}
}

// lazyDial performs the winning on-demand dial of one unplanned pair
// and waits until both endpoints are installed.
func (m *Machine) lazyDial(ctxDone <-chan struct{}, src, dst int) (net.Conn, error) {
	conn, err := m.dialRetry(ctxDone, src, dst)
	if err != nil {
		return nil, err
	}
	m.lazyDials.Add(1)
	if !m.register(src, dst, conn, true) {
		conn.Close()
		return nil, fmt.Errorf("tcp: lazy dial %d→%d: machine torn down", src, dst)
	}
	// Send on whatever register left in the table: if a racing accepted
	// connection (the remote side dialing us at the same moment) already
	// owned the slot, our dialed conn is a receive-only duplicate and
	// writing to it would split the link's FIFO order across two streams.
	m.connMu.RLock()
	if c := m.ends[src].conns[dst]; c != nil {
		conn = c
	}
	m.connMu.RUnlock()
	if !m.isLocal(dst) {
		// The acceptor's endpoint lives in another process; our own
		// registered end is all this process needs.
		return conn, nil
	}
	// Wait for the acceptor's endpoint so the pair is fully established
	// before any frame moves: a half-registered pair could otherwise
	// race the reverse direction into a duplicate connection.
	wake := func() {
		m.connMu.Lock()
		m.connCond.Broadcast()
		m.connMu.Unlock()
	}
	stop := make(chan struct{})
	defer close(stop)
	if ctxDone != nil {
		go func() {
			select {
			case <-ctxDone:
				wake()
			case <-stop:
			}
		}()
	}
	timer := time.AfterFunc(handshakeTimeout, wake)
	defer timer.Stop()
	deadline := time.Now().Add(handshakeTimeout)
	m.connMu.Lock()
	defer m.connMu.Unlock()
	for m.ends[dst].conns[src] == nil {
		if m.closed.Load() || m.broken.Load() {
			return nil, fmt.Errorf("tcp: lazy dial %d→%d: machine torn down", src, dst)
		}
		if ctxDone != nil {
			select {
			case <-ctxDone:
				return nil, fmt.Errorf("tcp: lazy dial %d→%d: run canceled", src, dst)
			default:
			}
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("tcp: lazy dial %d→%d: peer endpoint not registered within %v", src, dst, handshakeTimeout)
		}
		m.connCond.Wait()
	}
	return conn, nil
}
