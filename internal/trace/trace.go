// Package trace records observability events (internal/obs) for
// inspection and export. A Recorder plugs into sim.Options.Tracer or
// live/tcp Options.Tracer (which also records the faults an injector
// wrapping a rank injects); afterwards the
// events can be dumped as JSON lines (one event per line), exported in
// Chrome trace-event format for Perfetto (see WriteChrome), or summarized
// per kind.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Recorder accumulates events. It is safe for concurrent use, so one
// Recorder can serve the live/tcp engines (events arrive from many rank
// goroutines) and the fault injector at once; under the simulator's
// one-token scheduler the lock is uncontended.
type Recorder struct {
	// Events holds the retained events in arrival order. Read it only
	// after the run has completed.
	Events []obs.Event
	// Cap, when positive, bounds the number of retained events; further
	// events only update the counters and the Dropped count.
	Cap int

	mu      sync.Mutex
	dropped int
	counts  map[string]int
}

// NewRecorder returns a Recorder retaining at most cap events (0 = all).
func NewRecorder(cap int) *Recorder {
	return &Recorder{Cap: cap, counts: make(map[string]int)}
}

// Trace implements obs.Tracer (and therefore sim.Tracer).
func (r *Recorder) Trace(e obs.Event) {
	r.mu.Lock()
	if r.counts == nil {
		r.counts = make(map[string]int)
	}
	r.counts[e.Kind]++
	if r.Cap > 0 && len(r.Events) >= r.Cap {
		r.dropped++
		r.mu.Unlock()
		return
	}
	r.Events = append(r.Events, e)
	r.mu.Unlock()
}

// Count returns how many events of the kind were traced (including events
// dropped by Cap).
func (r *Recorder) Count(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[kind]
}

// Dropped returns how many events were discarded because the Cap was
// reached. Their kinds still appear in Count and Summary.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// truncationNote is the final JSON line WriteJSON emits for a capped
// trace, so a consumer of the file can tell it is incomplete.
type truncationNote struct {
	Kind    string `json:"kind"` // always "truncated"
	Dropped int    `json:"dropped"`
}

// WriteJSON writes the retained events as JSON lines. If the Cap dropped
// events, a final note line {"kind":"truncated","dropped":N} marks the
// trace as incomplete.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: encoding event: %w", err)
		}
	}
	if n := r.Dropped(); n > 0 {
		if err := enc.Encode(truncationNote{Kind: "truncated", Dropped: n}); err != nil {
			return fmt.Errorf("trace: encoding truncation note: %w", err)
		}
	}
	return nil
}

// Summary renders per-kind event counts, sorted by kind, with a trailing
// dropped count when the Cap truncated the trace.
func (r *Recorder) Summary() string {
	r.mu.Lock()
	kinds := make([]string, 0, len(r.counts))
	for k := range r.counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, r.counts[k])
	}
	if r.dropped > 0 {
		parts = append(parts, fmt.Sprintf("dropped=%d", r.dropped))
	}
	r.mu.Unlock()
	return strings.Join(parts, " ")
}
