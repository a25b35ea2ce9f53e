package daemon

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	stpbcast "repro"
)

// ErrPoolFull is returned by Acquire when the pool is at MaxSessions and
// every warm session is busy, so nothing can be evicted to make room.
// The server maps it to 503.
var ErrPoolFull = errors.New("daemon: session pool full (all meshes busy)")

// errPoolClosed is returned by Acquire after Close.
var errPoolClosed = errors.New("daemon: session pool closed")

// PoolOptions configure the warm-session pool. The zero value uses the
// defaults.
type PoolOptions struct {
	// MaxSessions caps the number of warm sessions (default 8). At the
	// cap, acquiring a new key evicts the least recently used idle
	// session; if every session is busy, Acquire fails with ErrPoolFull.
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long (default 5m;
	// negative disables TTL eviction). A janitor goroutine sweeps at
	// IdleTTL/4 granularity.
	IdleTTL time.Duration
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 8
	}
	if o.IdleTTL == 0 {
		o.IdleTTL = 5 * time.Minute
	}
	return o
}

// entry is one pooled warm session.
type entry struct {
	key Key
	// mu is held from Acquire to Release: concurrent requests for the
	// same key queue here instead of rebuilding the mesh, and the lock
	// covers the lazy open too.
	mu   sync.Mutex
	m    *stpbcast.Machine
	sess *stpbcast.Session
	// badRuns counts the runs the session completed whose bundles failed
	// the daemon's check: a failure the session itself never saw, which
	// stats folds into its Failures.
	badRuns atomic.Int64
	// refs and lastUse are guarded by Pool.mu: refs counts holders
	// (running or queued), lastUse is the last acquire/release instant.
	refs    int
	lastUse time.Time
}

// Pool is a keyed pool of warm sessions: lazy open on first use, LRU
// eviction at capacity, TTL eviction when idle, per-key serialization of
// runs. All methods are safe for concurrent use.
type Pool struct {
	opts PoolOptions

	mu        sync.Mutex
	entries   map[Key]*entry
	opens     int64
	evictions int64
	closed    bool
	stop      chan struct{}
	janitor   sync.WaitGroup
}

// NewPool builds a pool. The caller must Close it.
func NewPool(opts PoolOptions) *Pool {
	p := &Pool{
		opts:    opts.withDefaults(),
		entries: make(map[Key]*entry),
		stop:    make(chan struct{}),
	}
	if p.opts.IdleTTL > 0 {
		p.janitor.Add(1)
		go p.runJanitor()
	}
	return p
}

// Lease is access to one warm session, held from Acquire to Release.
// It holds the key's serialization lock throughout, so no other request
// can touch the same session, and it pins the session in the pool: it
// cannot be evicted or closed until Release.
type Lease struct {
	p *Pool
	e *entry
}

// Session returns the leased warm session.
func (l *Lease) Session() *stpbcast.Session { return l.e.sess }

// stats is the leased session's stats, the runs whose bundles failed
// the daemon's check counted as failures.
func (l *Lease) stats() stpbcast.SessionStats {
	st := l.e.sess.Stats()
	st.Failures += int(l.e.badRuns.Load())
	return st
}

// Release unlocks the key and returns the session to the pool (or
// closes it, for an entry that left the pool while this lease held it).
func (l *Lease) Release() {
	l.e.mu.Unlock()
	l.p.mu.Lock()
	l.e.refs--
	l.e.lastUse = time.Now()
	var orphan *stpbcast.Session
	if l.e.refs == 0 && l.p.entries[l.e.key] != l.e {
		// The entry left the map while we held it (pool Close, or a
		// failed lazy open by an earlier queued holder); the last one
		// out closes the session.
		orphan = l.e.sess
	}
	l.p.mu.Unlock()
	if orphan != nil {
		orphan.Close()
	}
}

// Acquire leases the warm session for key, opening it on first use and
// queueing behind any in-flight run on the same key. At capacity it
// evicts the least recently used idle session; with every session busy
// it fails fast with ErrPoolFull rather than queue on pool capacity.
func (p *Pool) Acquire(key Key) (*Lease, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errPoolClosed
	}
	e := p.entries[key]
	var victim *entry
	if e == nil {
		if len(p.entries) >= p.opts.MaxSessions {
			victim = p.lruIdleLocked()
			if victim == nil {
				p.mu.Unlock()
				return nil, ErrPoolFull
			}
			delete(p.entries, victim.key)
			p.evictions++
		}
		e = &entry{key: key, lastUse: time.Now()}
		p.entries[key] = e
	}
	e.refs++
	e.lastUse = time.Now()
	p.mu.Unlock()

	if victim != nil && victim.sess != nil {
		victim.Close()
	}

	// Per-key serialization: queue behind whoever holds the mesh.
	e.mu.Lock()
	if e.sess == nil {
		m, sess, err := key.open()
		if err != nil {
			e.mu.Unlock()
			p.mu.Lock()
			e.refs--
			if p.entries[key] == e {
				delete(p.entries, key)
			}
			p.mu.Unlock()
			return nil, err
		}
		// Under p.mu too: Sessions reads sess under it, not under e.mu.
		p.mu.Lock()
		e.m, e.sess = m, sess
		p.opens++
		p.mu.Unlock()
	}
	return &Lease{p: p, e: e}, nil
}

// Close is called on an evicted entry once no holder remains; refs==0
// guaranteed that at eviction time, so the session can be torn down.
func (e *entry) Close() {
	if e.sess != nil {
		e.sess.Close()
	}
}

// lruIdleLocked returns the least recently used entry with no holders,
// or nil when everything is busy. Pool.mu must be held.
func (p *Pool) lruIdleLocked() *entry {
	var victim *entry
	for _, e := range p.entries {
		if e.refs != 0 {
			continue
		}
		if victim == nil || e.lastUse.Before(victim.lastUse) {
			victim = e
		}
	}
	return victim
}

// runJanitor sweeps TTL-expired idle sessions until Close.
func (p *Pool) runJanitor() {
	defer p.janitor.Done()
	period := p.opts.IdleTTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case now := <-t.C:
			p.Sweep(now)
		}
	}
}

// Sweep evicts every idle session untouched since before now-IdleTTL.
// It is exported for tests; the janitor calls it periodically.
func (p *Pool) Sweep(now time.Time) int {
	if p.opts.IdleTTL <= 0 {
		return 0
	}
	cutoff := now.Add(-p.opts.IdleTTL)
	var victims []*entry
	p.mu.Lock()
	for key, e := range p.entries {
		if e.refs == 0 && e.lastUse.Before(cutoff) {
			delete(p.entries, key)
			p.evictions++
			victims = append(victims, e)
		}
	}
	p.mu.Unlock()
	for _, e := range victims {
		e.Close()
	}
	return len(victims)
}

// Sessions snapshots the pool for /v1/sessions (unsorted; callers
// order by key). Session stats are read without blocking behind
// in-flight runs — Session.Stats guarantees that.
func (p *Pool) Sessions() []SessionInfo {
	type snap struct {
		key     Key
		sess    *stpbcast.Session
		badRuns int64
		busy    bool
		lastUse time.Time
	}
	p.mu.Lock()
	snaps := make([]snap, 0, len(p.entries))
	for _, e := range p.entries {
		snaps = append(snaps, snap{key: e.key, sess: e.sess, badRuns: e.badRuns.Load(), busy: e.refs > 0, lastUse: e.lastUse})
	}
	p.mu.Unlock()
	now := time.Now()
	out := make([]SessionInfo, 0, len(snaps))
	for _, s := range snaps {
		info := SessionInfo{Key: s.key.String(), Busy: s.busy, IdleMs: now.Sub(s.lastUse).Milliseconds()}
		if s.busy {
			info.IdleMs = 0
		}
		if s.sess != nil {
			st := s.sess.Stats()
			st.Failures += int(s.badRuns)
			info.Runs, info.Failures, info.Bytes, info.Reconnects = st.Runs, st.Failures, st.Bytes, st.Reconnects
		}
		out = append(out, info)
	}
	return out
}

// Len reports the number of warm entries.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Opens and Evictions report pool lifecycle counts.
func (p *Pool) Opens() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opens
}

func (p *Pool) Evictions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions
}

// Close tears down every idle session and marks the pool closed; a
// session still held by a lease is closed by that lease's Release.
// Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.stop)
	var victims []*entry
	for key, e := range p.entries {
		delete(p.entries, key)
		if e.refs == 0 {
			victims = append(victims, e)
		}
	}
	p.mu.Unlock()
	p.janitor.Wait()
	for _, e := range victims {
		e.Close()
	}
}
