package daemon

import (
	"sync"
	"testing"
	"time"

	stpbcast "repro"
)

// simKey is the cheapest pool key: the simulator needs no engine setup.
func simKey(rows, cols int) Key {
	return Key{Engine: "sim", Topology: "paragon", Rows: rows, Cols: cols}
}

func TestPoolReusesWarmSession(t *testing.T) {
	p := NewPool(PoolOptions{})
	defer p.Close()
	for i := 0; i < 3; i++ {
		l, err := p.Acquire(simKey(4, 4))
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if l.Session() == nil {
			t.Fatalf("acquire %d: nil session", i)
		}
		l.Release()
	}
	if got := p.Opens(); got != 1 {
		t.Errorf("3 acquires of one key opened %d sessions, want 1", got)
	}
	if got := p.Len(); got != 1 {
		t.Errorf("pool holds %d entries, want 1", got)
	}
}

func TestPoolPerKeySerialization(t *testing.T) {
	p := NewPool(PoolOptions{})
	defer p.Close()
	const workers = 8
	var mu sync.Mutex
	inside := 0
	maxInside := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := p.Acquire(simKey(4, 4))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inside--
			mu.Unlock()
			l.Release()
		}()
	}
	wg.Wait()
	if maxInside != 1 {
		t.Errorf("%d leases of one key held concurrently, want 1 (per-key serialization)", maxInside)
	}
	if got := p.Opens(); got != 1 {
		t.Errorf("concurrent acquires opened %d sessions, want 1", got)
	}
}

func TestPoolLRUEvictionAtCapacity(t *testing.T) {
	p := NewPool(PoolOptions{MaxSessions: 2})
	defer p.Close()
	touch := func(rows int) {
		l, err := p.Acquire(simKey(rows, 2))
		if err != nil {
			t.Fatalf("acquire %dx2: %v", rows, err)
		}
		l.Release()
	}
	touch(2) // oldest
	touch(3)
	touch(4) // must evict 2x2
	if got := p.Len(); got != 2 {
		t.Fatalf("pool holds %d entries at cap 2", got)
	}
	if got := p.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	for _, info := range p.Sessions() {
		if info.Key == simKey(2, 2).String() {
			t.Errorf("LRU entry %s survived eviction", info.Key)
		}
	}
}

func TestPoolFullWhenAllBusy(t *testing.T) {
	p := NewPool(PoolOptions{MaxSessions: 1})
	defer p.Close()
	l, err := p.Acquire(simKey(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if _, err := p.Acquire(simKey(3, 3)); err != ErrPoolFull {
		t.Fatalf("acquire over a busy full pool returned %v, want ErrPoolFull", err)
	}
}

func TestPoolTTLSweep(t *testing.T) {
	p := NewPool(PoolOptions{IdleTTL: time.Minute})
	defer p.Close()
	l, err := p.Acquire(simKey(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	if n := p.Sweep(time.Now()); n != 0 {
		t.Fatalf("fresh session swept after %d evictions", n)
	}
	if n := p.Sweep(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("expired session not swept (got %d)", n)
	}
	if got := p.Len(); got != 0 {
		t.Errorf("pool holds %d entries after sweep", got)
	}
}

func TestPoolOpenFailureDoesNotPoisonKey(t *testing.T) {
	p := NewPool(PoolOptions{})
	defer p.Close()
	bad := Key{Engine: "tcp", Topology: "nope", Rows: 2, Cols: 2}
	if _, err := p.Acquire(bad); err == nil {
		t.Fatal("acquire of an unknown topology succeeded")
	}
	if got := p.Len(); got != 0 {
		t.Fatalf("failed open left %d entries in the pool", got)
	}
	// The same pool still serves good keys.
	l, err := p.Acquire(simKey(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
}

// TestPoolEvictionSparesHeldLease: a lease is held for the whole run,
// so neither the TTL sweep nor LRU eviction at capacity may tear down
// its session while that run is still in flight — refs pin the entry
// until Release.
func TestPoolEvictionSparesHeldLease(t *testing.T) {
	p := NewPool(PoolOptions{MaxSessions: 1, IdleTTL: time.Minute})
	defer p.Close()
	l, err := p.Acquire(Key{Engine: "tcp", Topology: "paragon", Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The source rank blocks producing its payload, keeping the run
	// deterministically in flight until the test releases it.
	entered, release := make(chan struct{}), make(chan struct{})
	ran := make(chan error, 1)
	go func() {
		_, err := l.Session().Run(
			stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 1, MsgBytes: 8},
			stpbcast.RunOptions{
				RecvTimeout: time.Minute,
				Payload: func(rank int) []byte {
					close(entered)
					<-release
					return []byte{byte(rank)}
				},
			})
		ran <- err
	}()
	<-entered

	if n := p.Sweep(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("Sweep tore down %d sessions with a run in flight", n)
	}
	if _, err := p.Acquire(simKey(4, 4)); err != ErrPoolFull {
		t.Fatalf("Acquire at capacity = %v, want ErrPoolFull (the held mesh must not be evicted)", err)
	}
	close(release)
	if err := <-ran; err != nil {
		t.Fatalf("run on the held session: %v", err)
	}
	l.Release()
	// Finished and released: the very sweep that had to spare the
	// session now evicts it.
	if n := p.Sweep(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("post-release Sweep evicted %d sessions, want 1", n)
	}
}

// TestPoolSessionsDuringLazyOpen polls the pool snapshot while new keys
// open their sessions: under the race detector, the snapshot's read of
// an entry's session must be ordered with the lazy open's write of it.
func TestPoolSessionsDuringLazyOpen(t *testing.T) {
	const keys = 200
	p := NewPool(PoolOptions{MaxSessions: keys})
	defer p.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				p.Sessions()
			}
		}
	}()
	for i := range keys {
		l, err := p.Acquire(simKey(1+i/20, 1+i%20))
		if err != nil {
			t.Error(err)
			break
		}
		l.Release()
	}
	close(stop)
	wg.Wait()
}
