package plan

import (
	"sync"

	"repro/internal/metrics"
)

// DefaultMaxEntries bounds the cache when the caller does not.
const DefaultMaxEntries = 4096

// Counter names surfaced through internal/metrics.
const (
	CounterCacheHits   = "plan.cache.hits"
	CounterCacheMisses = "plan.cache.misses"
	CounterProbes      = "plan.probe.runs"
)

// Entry is one cached plan: the chosen algorithm and its probed time.
type Entry struct {
	// Algorithm is the chosen algorithm's registry name.
	Algorithm string
	// ElapsedMs is the chosen algorithm's probed time in milliseconds.
	ElapsedMs float64
}

// Cache is the planner's memo: an in-memory map of Key → Entry that
// forgets its oldest insertion beyond capacity (deterministic FIFO). It
// lives as long as the process; a plan is never read back from anywhere
// else, so it is always the current planner's choice. All methods are
// safe for concurrent use. Get accounts hits and misses on the
// process-wide plan.cache.* counters.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[Key]Entry
	order   []Key // insertion order, oldest first

	hits, misses *metrics.Counter
}

// NewMemCache returns a cache holding at most maxEntries plans (0 uses
// DefaultMaxEntries).
func NewMemCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		max:     maxEntries,
		entries: make(map[Key]Entry),
		hits:    metrics.GetCounter(CounterCacheHits),
		misses:  metrics.GetCounter(CounterCacheMisses),
	}
}

// Get returns the cached entry for a key and whether it was present,
// incrementing the hit or miss counter.
func (c *Cache) Get(k Key) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return e, ok
}

// Put stores a plan. A new key evicts the oldest insertion once the
// cache is over capacity; replaying the same Put sequence leaves the same
// survivors.
func (c *Cache) Put(k Key, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; !ok {
		c.order = append(c.order, k)
	}
	c.entries[k] = e
	if len(c.order) > c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}
