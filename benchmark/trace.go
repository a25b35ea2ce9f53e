package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// Tracing from outside the program. The system under test has no stage
// timers yet (ROADMAP items 1 and 5), so spans are recorded at the public
// seams that already exist: around every call the benchmark makes into a
// layer, and — through RunOptions.Algorithm, which accepts any
// core.Algorithm — around each rank's alg.Run and every comm operation it
// issues. That yields real nested spans
//
//	<workload>.op ⊃ session.run ⊃ rank.alg_run ⊃ comm.send|recv|barrier
//
// Spans stay in memory and are written as one Chrome-trace file at exit.

// span is one timed interval: name, start, end, the span that caused it,
// and the id of the op it belongs to.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's base
	ID, Parent int32 // Parent 0 means a root span
	Op         int32
	PID, TID   int // Chrome process (workload) and thread (0 caller, rank+1)
}

// spanRef is an open span: its slot in tracer.spans (-1 when this op's
// spans are not retained) and its start, which is always recorded so the
// duration is available either way.
type spanRef struct {
	idx   int
	start int64
}

// commSpan is one comm operation on a rank, retained only for kept ops.
type commSpan struct {
	kind       uint8 // 0 send, 1 recv, 2 barrier
	start, end int64
}

var commSpanNames = [...]string{"comm.send", "comm.recv", "comm.barrier"}

// rankTrace is what one rank records during one run. Each rank goroutine
// writes only its own slot, and the caller reads the slots after the run
// has joined, so no lock is needed.
type rankTrace struct {
	begin, end                int64 // alg.Run entry and exit
	sendNs, recvNs, barrierNs int64
	sends                     int
	bytes                     int64
	spans                     []commSpan
	comm                      tracedComm
}

// runTimes is the budget of one traced run, in nanoseconds.
type runTimes struct {
	total, pre, alg, post     int64
	sendNs, recvNs, barrierNs int64 // summed on the critical-path rank
	sends                     int   // exact, all ranks
	bytes                     int64 // exact, all ranks
}

// tracer collects the spans and per-layer samples of one workload. Only
// the caller's goroutine touches it, except for the per-rank slots (see
// rankTrace).
type tracer struct {
	base    time.Time
	pid     int
	keepOps int // ops whose spans are retained for the Chrome file
	ops     int32
	keep    bool
	spans   []span
	nextID  int32
	stack   []int32 // ids of the spans open on the caller's goroutine
	obs     map[string][]float64
	ranks   []rankTrace
}

func newTracer(base time.Time, pid, p, keepOps int) *tracer {
	return &tracer{base: base, pid: pid, keepOps: keepOps, obs: map[string][]float64{}, ranks: make([]rankTrace, p)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// observe adds one sample of a per-layer metric.
func (t *tracer) observe(metric string, v float64) { t.obs[metric] = append(t.obs[metric], v) }

// beginOp opens the root span of one op. Spans are retained for the first
// keepOps ops only: a Chrome file of every op would be gigabytes, and the
// per-layer numbers come from the samples, not from the file.
func (t *tracer) beginOp(name string) spanRef {
	t.ops++
	t.keep = int(t.ops) <= t.keepOps
	return t.begin(name)
}

// begin opens a span on the caller's goroutine under the innermost open one.
func (t *tracer) begin(name string) spanRef {
	ref := spanRef{idx: -1}
	if t.keep {
		t.nextID++
		var parent int32
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
		t.stack = append(t.stack, t.nextID)
		ref.idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, ID: t.nextID, Parent: parent, Op: t.ops, PID: t.pid})
	}
	ref.start = t.now()
	if ref.idx >= 0 {
		t.spans[ref.idx].Start = ref.start
	}
	return ref
}

// end closes the span and returns its duration in nanoseconds.
func (t *tracer) end(ref spanRef) int64 {
	now := t.now()
	if ref.idx >= 0 {
		t.spans[ref.idx].End = now
		t.stack = t.stack[:len(t.stack)-1]
	}
	return now - ref.start
}

// traceRun times one run of alg through call (a Session.Run or a bare
// Machine.Run) with the tracing decorator in place and folds the ranks'
// records into the run's budget:
//
//	pre  = call entry → first rank enters alg.Run
//	alg  = alg.Run on the critical-path rank (the last one to leave)
//	post = last rank leaves alg.Run → call returns
func (t *tracer) traceRun(name string, alg core.Algorithm, call func(core.Algorithm) error) (runTimes, error) {
	for i := range t.ranks {
		r := &t.ranks[i]
		*r = rankTrace{spans: r.spans[:0]}
	}
	ref := t.begin(name)
	err := call(&tracedAlg{inner: alg, t: t})
	var rt runTimes
	rt.total = t.end(ref)
	if err != nil {
		return rt, err
	}
	t3 := ref.start + rt.total
	first, last, crit := int64(0), int64(0), -1
	for i := range t.ranks {
		r := &t.ranks[i]
		if r.end == 0 {
			continue // rank never entered alg.Run (the call did not use alg)
		}
		if crit < 0 || r.begin < first {
			first = r.begin
		}
		if crit < 0 || r.end > last {
			last, crit = r.end, i
		}
		rt.sends += r.sends
		rt.bytes += r.bytes
	}
	if crit < 0 {
		return rt, fmt.Errorf("trace: %s never entered the tracing algorithm", name)
	}
	c := &t.ranks[crit]
	rt.pre, rt.alg, rt.post = first-ref.start, c.end-c.begin, t3-last
	rt.sendNs, rt.recvNs, rt.barrierNs = c.sendNs, c.recvNs, c.barrierNs
	if ref.idx >= 0 {
		runID := t.spans[ref.idx].ID
		for i := range t.ranks {
			r := &t.ranks[i]
			if r.end == 0 {
				continue
			}
			t.nextID++
			rankID := t.nextID
			t.spans = append(t.spans, span{Name: "rank.alg_run", Start: r.begin, End: r.end, ID: rankID, Parent: runID, Op: t.ops, PID: t.pid, TID: i + 1})
			for _, cs := range r.spans {
				t.nextID++
				t.spans = append(t.spans, span{Name: commSpanNames[cs.kind], Start: cs.start, End: cs.end, ID: t.nextID, Parent: rankID, Op: t.ops, PID: t.pid, TID: i + 1})
			}
		}
	}
	return rt, nil
}

// tracedAlg decorates an algorithm: it forwards Name and Collective and
// runs the inner algorithm over a comm that times every operation.
type tracedAlg struct {
	inner core.Algorithm
	t     *tracer
}

func (a *tracedAlg) Name() string { return a.inner.Name() }

// Collective forwards the inner algorithm's tag (untagged means
// Broadcast), so the facade's collective guard sees through the wrapper.
func (a *tracedAlg) Collective() core.Collective { return core.CollectiveOf(a.inner) }

func (a *tracedAlg) Run(c comm.Comm, spec core.Spec, mine comm.Message) comm.Message {
	// An engine that meters virtual time (the simulator) must see the
	// algorithm on its own comm: a wrapper would hide comm.Clock, the
	// combine charges would vanish and simulated times would change.
	if _, virtual := c.(comm.Clock); virtual {
		return a.inner.Run(c, spec, mine)
	}
	r := &a.t.ranks[c.Rank()]
	r.comm = tracedComm{Comm: c, t: a.t, r: r}
	r.begin = a.t.now()
	out := a.inner.Run(&r.comm, spec, mine)
	r.end = a.t.now()
	return out
}

// tracedComm times Send, Recv and Barrier on one rank and forwards the
// iteration and phase markers the algorithms stamp.
type tracedComm struct {
	comm.Comm
	t *tracer
	r *rankTrace
}

func (c *tracedComm) note(kind uint8, start int64) int64 {
	end := c.t.now()
	if c.t.keep {
		c.r.spans = append(c.r.spans, commSpan{kind: kind, start: start, end: end})
	}
	return end - start
}

func (c *tracedComm) Send(dst int, m comm.Message) {
	start := c.t.now()
	c.Comm.Send(dst, m)
	c.r.sendNs += c.note(0, start)
	c.r.sends++
	c.r.bytes += int64(m.Len())
}

func (c *tracedComm) Recv(src int) comm.Message {
	start := c.t.now()
	m := c.Comm.Recv(src)
	c.r.recvNs += c.note(1, start)
	return m
}

func (c *tracedComm) Barrier() {
	start := c.t.now()
	c.Comm.Barrier()
	c.r.barrierNs += c.note(2, start)
}

func (c *tracedComm) BeginIter(i int)        { comm.MarkIter(c.Comm, i) }
func (c *tracedComm) BeginPhase(name string) { comm.MarkPhase(c.Comm, name) }

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events plus "M" metadata), which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every retained span as one Chrome-trace file: one
// process per workload, thread 0 for the caller and thread r+1 for rank r.
func writeChrome(w io.Writer, names []string, tracers []*tracer) error {
	var events []chromeEvent
	for i, t := range tracers {
		if t == nil || len(t.spans) == 0 {
			continue
		}
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: t.pid, Args: map[string]any{"name": names[i]}})
		for _, s := range t.spans {
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				PID: s.PID, TID: s.TID,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}
