package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// CacheVersion is the on-disk cache format version. A file with a
// different version is discarded on open (the plans it holds were chosen
// under different rules).
const CacheVersion = 1

// DefaultMaxEntries bounds the cache when the caller does not.
const DefaultMaxEntries = 4096

// Counter names surfaced through internal/metrics.
const (
	CounterCacheHits   = "plan.cache.hits"
	CounterCacheMisses = "plan.cache.misses"
	CounterProbes      = "plan.probe.runs"
)

// Entry is one cached plan: the chosen algorithm and how it was chosen.
type Entry struct {
	// Algorithm is the chosen algorithm's registry name.
	Algorithm string `json:"algorithm"`
	// ElapsedMs is the chosen algorithm's probed time in milliseconds.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Source records which tier produced the choice: "probe".
	Source string `json:"source"`
	// Seq is the entry's insertion sequence number; eviction removes the
	// lowest sequence first (deterministic FIFO).
	Seq int64 `json:"seq"`
}

// cacheFile is the JSON layout on disk.
type cacheFile struct {
	Version int              `json:"version"`
	Seq     int64            `json:"seq"`
	Entries map[string]Entry `json:"entries"`
}

// Cache is the plan cache: an in-memory map of canonical key → Entry,
// optionally mirrored to a JSON file. All methods are safe for concurrent
// use. Get and Put account hits and misses on the process-wide
// plan.cache.* counters.
type Cache struct {
	mu   sync.Mutex
	path string // "" = memory only
	max  int
	file cacheFile

	hits, misses *metrics.Counter
}

func newCache(path string, maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		path:   path,
		max:    maxEntries,
		file:   cacheFile{Version: CacheVersion, Entries: make(map[string]Entry)},
		hits:   metrics.GetCounter(CounterCacheHits),
		misses: metrics.GetCounter(CounterCacheMisses),
	}
}

// NewMemCache returns a memory-only cache holding at most maxEntries
// plans (0 uses DefaultMaxEntries).
func NewMemCache(maxEntries int) *Cache { return newCache("", maxEntries) }

// OpenCache loads (or initializes) a persistent cache at path. A missing
// file yields an empty cache; a file with a different version is
// discarded. Put persists immediately, so callers need not Save unless
// they mutated nothing.
func OpenCache(path string, maxEntries int) (*Cache, error) {
	c := newCache(path, maxEntries)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("plan: open cache: %w", err)
	}
	var f cacheFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("plan: cache %s: %w", path, err)
	}
	if f.Version != CacheVersion {
		// Stale format: start over rather than trust old plans.
		return c, nil
	}
	if f.Entries == nil {
		f.Entries = make(map[string]Entry)
	}
	// Validate keys; a corrupt entry invalidates only itself.
	for ks := range f.Entries {
		if _, err := ParseKey(ks); err != nil {
			delete(f.Entries, ks)
		}
	}
	c.file = f
	return c, nil
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.file.Entries)
}

// Get returns the cached entry for a key and whether it was present,
// incrementing the hit or miss counter.
func (c *Cache) Get(k Key) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.file.Entries[k.String()]
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return e, ok
}

// Put stores a plan, assigning its sequence number, evicting the oldest
// entries beyond the capacity, and persisting when the cache is backed by
// a file.
func (c *Cache) Put(k Key, e Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.file.Seq++
	e.Seq = c.file.Seq
	c.file.Entries[k.String()] = e
	c.evictLocked()
	if c.path == "" {
		return nil
	}
	return c.saveLocked()
}

// evictLocked removes lowest-sequence entries until the cache fits. FIFO
// by insertion sequence is deterministic: replaying the same Put sequence
// leaves the same survivors.
func (c *Cache) evictLocked() {
	for len(c.file.Entries) > c.max {
		oldestKey := ""
		oldestSeq := int64(0)
		for ks, e := range c.file.Entries {
			if oldestKey == "" || e.Seq < oldestSeq || (e.Seq == oldestSeq && ks < oldestKey) {
				oldestKey, oldestSeq = ks, e.Seq
			}
		}
		delete(c.file.Entries, oldestKey)
	}
}

// Save writes the cache to its backing file (no-op for memory-only
// caches). The write is atomic: temp file in the same directory, then
// rename.
func (c *Cache) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.path == "" {
		return nil
	}
	return c.saveLocked()
}

func (c *Cache) saveLocked() error {
	raw, err := json.MarshalIndent(c.file, "", "  ")
	if err != nil {
		return fmt.Errorf("plan: encode cache: %w", err)
	}
	dir := filepath.Dir(c.path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("plan: cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".plancache-*")
	if err != nil {
		return fmt.Errorf("plan: cache temp: %w", err)
	}
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("plan: write cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("plan: close cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("plan: install cache: %w", err)
	}
	return nil
}

// CachedPlan pairs a canonical key encoding with its cached entry.
type CachedPlan struct {
	Key   string
	Entry Entry
}

// Snapshot returns the cached plans sorted by canonical key, for
// inspection tools.
func (c *Cache) Snapshot() []CachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CachedPlan, 0, len(c.file.Entries))
	for ks, e := range c.file.Entries {
		out = append(out, CachedPlan{Key: ks, Entry: e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
