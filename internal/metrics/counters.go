package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a named, monotonically increasing event counter. Counters
// complement the per-run Params with process-wide operational metrics —
// the planner's cache hit/miss and probe counts are the first users.
// All methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

var (
	countersMu sync.Mutex
	counters   = make(map[string]*Counter)
)

// GetCounter returns the process-wide counter with the given name,
// creating it on first use. Repeated calls with the same name return the
// same counter.
func GetCounter(name string) *Counter {
	countersMu.Lock()
	defer countersMu.Unlock()
	if c, ok := counters[name]; ok {
		return c
	}
	c := &Counter{}
	counters[name] = c
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterSnapshot is one counter's value at snapshot time.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// Counters returns the current value of every registered counter, sorted
// by name, for tables and debug output.
func Counters() []CounterSnapshot {
	countersMu.Lock()
	defer countersMu.Unlock()
	out := make([]CounterSnapshot, 0, len(counters))
	for name, c := range counters {
		out = append(out, CounterSnapshot{Name: name, Value: c.Value()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
