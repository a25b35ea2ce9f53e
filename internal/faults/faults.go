// Package faults injects deterministic communication faults into a
// live or tcp run for chaos testing. An Injector wraps every rank's
// comm.Comm; the wrapper intercepts Send/Recv/Barrier and applies the
// faults of a Plan: dropping, delaying, duplicating or corrupting
// individual messages on a (src, dst) link, and killing a rank when it
// reaches its Nth communication operation.
//
// The schedule is a pure function of the Plan. Rate-based faults are
// decided by hashing (Seed, src, dst, message index), never by a shared
// RNG, so the same seed produces the same fault schedule regardless of
// goroutine interleaving — a failing chaos run is replayable by seed.
//
// Faults are applied above the engine, at the comm.Comm boundary: a
// dropped message is never handed to the engine (the receiver blocks
// until a deadline converts the hang into an error), and engine-level
// operation counts see the post-fault traffic.
//
// The injector models an integrity- and duplicate-checking transport,
// the behaviour of any real fabric with CRC-bearing, sequence-numbered
// frames (the paper's NX and MPI layers both ran over such links):
// duplicated deliveries are detected at the receiver and silently
// discarded, so a run under Duplicate faults completes with the exact
// bundles of a fault-free run; corrupted deliveries are detected at the
// receiver, which aborts the run with a diagnostic naming the link —
// corruption is surfaced, never silently delivered to algorithm code.
package faults

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/obs"
)

// Kind enumerates the injectable fault kinds.
type Kind int

const (
	// Drop discards the message; it is never delivered.
	Drop Kind = iota
	// Delay sleeps before handing the message to the engine.
	Delay
	// Duplicate delivers the message twice; the receive side detects
	// and discards the second copy.
	Duplicate
	// Corrupt flips payload bytes; the receive side detects the damage
	// and aborts with a diagnostic.
	Corrupt
	// Kill terminates a rank at a chosen operation index.
	Kill
)

// String names the kind for events and diagnostics.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "duplicate"
	case Corrupt:
		return "corrupt"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one explicit link fault: it hits the Msg-th message (0-based,
// in send order) on the Src→Dst link.
type Fault struct {
	Kind     Kind
	Src, Dst int
	// Msg indexes the message on the link, counting every Send in
	// program order (dropped messages included).
	Msg int
	// Delay is the injected latency for Delay faults; zero means
	// DefaultDelay.
	Delay time.Duration
}

// KillAt schedules the death of one rank: the rank panics when its
// running count of communication operations (Send, Recv and Barrier
// calls) reaches Op.
type KillAt struct {
	Rank int
	// Op is the 0-based operation index at which the rank dies.
	Op int
}

// DefaultDelay is used for Delay faults that do not specify a duration.
const DefaultDelay = time.Millisecond

// Plan describes a fault schedule. Zero value = no faults. Rate fields
// are per-message probabilities in [0, 1], decided deterministically
// from Seed; Faults and Kills are explicit, targeted injections applied
// in addition to the rates.
type Plan struct {
	// Seed drives the rate-based fault decisions.
	Seed int64
	// Drop, Duplicate, Corrupt, DelayProb are per-message fault
	// probabilities on every link.
	Drop, Duplicate, Corrupt, DelayProb float64
	// MaxDelay bounds rate-injected delays (uniform in (0, MaxDelay]);
	// zero means DefaultDelay.
	MaxDelay time.Duration
	// Faults lists explicit per-link faults.
	Faults []Fault
	// Kills lists ranks to terminate mid-run.
	Kills []KillAt
}

// Active reports whether the plan injects anything at all.
func (p Plan) Active() bool {
	return p.Drop > 0 || p.Duplicate > 0 || p.Corrupt > 0 || p.DelayProb > 0 ||
		len(p.Faults) > 0 || len(p.Kills) > 0
}

// Event records one injected fault.
type Event struct {
	Kind     Kind
	Src, Dst int // the link, for link faults; -1 for kills
	Msg      int // message index on the link; -1 for kills
	Rank     int // killed rank; -1 for link faults
	Op       int // operation index of the kill; -1 for link faults
	Delay    time.Duration
}

// String formats the event for reports.
func (e Event) String() string {
	if e.Kind == Kill {
		return fmt.Sprintf("kill rank %d at op %d", e.Rank, e.Op)
	}
	s := fmt.Sprintf("%s msg #%d on link %d→%d", e.Kind, e.Msg, e.Src, e.Dst)
	if e.Kind == Delay {
		s += fmt.Sprintf(" (%v)", e.Delay)
	}
	return s
}

// delivery is one message handed to the engine on a link, in FIFO
// order. The receive side consumes entries in the same order — the
// engines guarantee per-(src,dst) FIFO delivery — and reacts to the
// flags: dup entries are discarded, corrupt entries abort.
type delivery struct {
	corrupt bool
	dup     bool
}

// link is the injector's shared per-(src,dst) state.
type link struct {
	sent  int // messages sent (fault indexing; includes dropped)
	log   []delivery
	taken int
}

// Injector owns the shared fault schedule of one run. Create one per
// run and wrap every rank's comm.Comm with Wrap. All methods are safe
// for concurrent use by the per-rank goroutines.
type Injector struct {
	plan     Plan
	explicit map[[3]int][]Fault // (src,dst,msg) → faults

	tr    obs.Tracer
	start time.Time

	mu     sync.Mutex
	links  map[[2]int]*link
	events []Event
}

// New builds an injector for the plan. Rates are clamped to [0, 1].
func New(plan Plan) *Injector {
	clamp := func(r *float64) {
		if *r < 0 {
			*r = 0
		}
		if *r > 1 {
			*r = 1
		}
	}
	clamp(&plan.Drop)
	clamp(&plan.Duplicate)
	clamp(&plan.Corrupt)
	clamp(&plan.DelayProb)
	in := &Injector{plan: plan, explicit: make(map[[3]int][]Fault), links: make(map[[2]int]*link)}
	for _, f := range plan.Faults {
		k := [3]int{f.Src, f.Dst, f.Msg}
		in.explicit[k] = append(in.explicit[k], f)
	}
	return in
}

// SetTracer mirrors every injected fault into an engine-agnostic event
// stream (kind "fault", the fault name in Event.Fault) so chaos lands in
// the same trace as the traffic that triggered it. Wall stamps are
// nanoseconds since start — pass the same zero point the engine's tracer
// uses. Call before the run starts; the tracer must be safe for
// concurrent use.
func (in *Injector) SetTracer(t obs.Tracer, start time.Time) {
	in.tr = t
	in.start = start
}

// trace mirrors one fault event to the tracer (nil-safe). Link faults
// land on the sending rank's track; kills on the killed rank's.
func (in *Injector) trace(e Event) {
	if in.tr == nil {
		return
	}
	oe := obs.Event{
		Kind: obs.KindFault, Fault: e.Kind.String(), Iter: -1,
		Wall: time.Since(in.start).Nanoseconds(),
		Dur:  network.Time(e.Delay.Nanoseconds()),
	}
	if e.Kind == Kill {
		oe.Rank, oe.Peer, oe.Seq = e.Rank, -1, e.Op
	} else {
		oe.Rank, oe.Peer, oe.Seq = e.Src, e.Dst, e.Msg
	}
	in.tr.Trace(oe)
}

// Events returns the injected faults so far in a canonical order
// (independent of goroutine interleaving).
func (in *Injector) Events() []Event {
	in.mu.Lock()
	out := append([]Event(nil), in.events...)
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Kind < b.Kind
	})
	return out
}

// Wrap returns c with the injector's faults applied. Call once per
// rank, with every rank of the run wrapped by the same Injector (the
// duplicate/corruption detection needs the shared delivery log).
func (in *Injector) Wrap(c comm.Comm) comm.Comm {
	kill := -1
	for _, k := range in.plan.Kills {
		if k.Rank == c.Rank() {
			kill = k.Op
		}
	}
	return &proc{inner: c, inj: in, kill: kill}
}

// decision is the set of faults applying to one message.
type decision struct {
	drop, dup, corrupt bool
	delay              time.Duration
	corruptByte        uint64 // hash source for the flipped byte position
}

// decide computes the faults for message #msg on link src→dst. Pure
// function of the plan — this is what makes the schedule seed-stable.
func (in *Injector) decide(src, dst, msg int) decision {
	var d decision
	p := in.plan
	s, t, m := uint64(src), uint64(dst), uint64(msg)
	if p.Drop > 0 && frac(p.Seed, 1, s, t, m) < p.Drop {
		d.drop = true
	}
	if p.Duplicate > 0 && frac(p.Seed, 2, s, t, m) < p.Duplicate {
		d.dup = true
	}
	if p.Corrupt > 0 && frac(p.Seed, 3, s, t, m) < p.Corrupt {
		d.corrupt = true
	}
	if p.DelayProb > 0 && frac(p.Seed, 4, s, t, m) < p.DelayProb {
		max := p.MaxDelay
		if max <= 0 {
			max = DefaultDelay
		}
		d.delay = time.Duration(frac(p.Seed, 5, s, t, m)*float64(max)) + 1
	}
	for _, f := range in.explicit[[3]int{src, dst, msg}] {
		switch f.Kind {
		case Drop:
			d.drop = true
		case Duplicate:
			d.dup = true
		case Corrupt:
			d.corrupt = true
		case Delay:
			dl := f.Delay
			if dl <= 0 {
				dl = DefaultDelay
			}
			d.delay = dl
		}
	}
	d.corruptByte = mix(p.Seed, 6, s, t, m)
	return d
}

func (in *Injector) linkFor(src, dst int) *link {
	k := [2]int{src, dst}
	l := in.links[k]
	if l == nil {
		l = &link{}
		in.links[k] = l
	}
	return l
}

// proc is the per-rank faulted view of a comm.Comm. It forwards the
// iteration and phase markers, so traced events keep their stamps.
type proc struct {
	inner comm.Comm
	inj   *Injector
	kill  int // op index at which this rank dies; -1 = never
	ops   int
}

var (
	_ comm.Comm        = (*proc)(nil)
	_ comm.IterMarker  = (*proc)(nil)
	_ comm.PhaseMarker = (*proc)(nil)
)

func (p *proc) Rank() int { return p.inner.Rank() }
func (p *proc) Size() int { return p.inner.Size() }

// BeginIter implements comm.IterMarker by forwarding to the engine.
func (p *proc) BeginIter(i int) { comm.MarkIter(p.inner, i) }

// BeginPhase implements comm.PhaseMarker by forwarding to the engine.
func (p *proc) BeginPhase(name string) { comm.MarkPhase(p.inner, name) }

// op counts one communication operation and kills the rank when its
// schedule says so.
func (p *proc) op() {
	n := p.ops
	p.ops++
	if p.kill >= 0 && n == p.kill {
		in := p.inj
		ev := Event{Kind: Kill, Src: -1, Dst: -1, Msg: -1, Rank: p.Rank(), Op: n}
		in.mu.Lock()
		in.events = append(in.events, ev)
		in.mu.Unlock()
		in.trace(ev)
		panic(fmt.Errorf("faults: rank %d killed at operation %d (injected)", p.Rank(), n))
	}
}

// Send implements comm.Comm with the link's faults applied.
func (p *proc) Send(dst int, m comm.Message) {
	p.op()
	src := p.Rank()
	in := p.inj

	in.mu.Lock()
	l := in.linkFor(src, dst)
	idx := l.sent
	l.sent++
	d := in.decide(src, dst, idx)
	ev := Event{Src: src, Dst: dst, Msg: idx, Rank: -1, Op: -1}
	if d.delay > 0 {
		ev.Kind, ev.Delay = Delay, d.delay
		in.events = append(in.events, ev)
		in.trace(ev)
	}
	if d.drop {
		ev.Kind, ev.Delay = Drop, 0
		in.events = append(in.events, ev)
		in.trace(ev)
		in.mu.Unlock()
		if d.delay > 0 {
			time.Sleep(d.delay)
		}
		return // never handed to the engine
	}
	if d.corrupt {
		ev.Kind, ev.Delay = Corrupt, 0
		in.events = append(in.events, ev)
		in.trace(ev)
	}
	if d.dup {
		ev.Kind, ev.Delay = Duplicate, 0
		in.events = append(in.events, ev)
		in.trace(ev)
	}
	// Register the deliveries before the engine can make them
	// receivable: the receive side pops this log in FIFO order.
	l.log = append(l.log, delivery{corrupt: d.corrupt})
	if d.dup {
		l.log = append(l.log, delivery{corrupt: d.corrupt, dup: true})
	}
	in.mu.Unlock()

	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.corrupt {
		m = corruptCopy(m, d.corruptByte)
	}
	p.inner.Send(dst, m)
	if d.dup {
		p.inner.Send(dst, m)
	}
}

// Recv implements comm.Comm: it consumes engine deliveries, discarding
// injected duplicates and aborting on detected corruption.
func (p *proc) Recv(src int) comm.Message {
	p.op()
	dst := p.Rank()
	for {
		m := p.inner.Recv(src)
		in := p.inj
		in.mu.Lock()
		l := in.linkFor(src, dst)
		if l.taken >= len(l.log) {
			in.mu.Unlock()
			panic(fmt.Errorf("faults: rank %d received unlogged message from %d (traffic bypassed the injector?)", dst, src))
		}
		d := l.log[l.taken]
		idx := l.taken
		l.taken++
		in.mu.Unlock()
		if d.dup {
			continue // duplicate detected and discarded
		}
		if d.corrupt {
			panic(fmt.Errorf("faults: rank %d detected corrupted delivery #%d on link %d→%d (injected corruption)", dst, idx, src, dst))
		}
		return m
	}
}

// Barrier implements comm.Comm; it only counts toward the kill
// schedule (barrier traffic is engine-internal).
func (p *proc) Barrier() {
	p.op()
	p.inner.Barrier()
}

// corruptCopy returns m with payloads deep-copied and one byte of each
// non-empty part flipped — the original buffers (aliased by the
// sender's bundle) are never touched.
func corruptCopy(m comm.Message, h uint64) comm.Message {
	cp := comm.Message{Tag: m.Tag, Parts: make([]comm.Part, len(m.Parts))}
	for i, part := range m.Parts {
		cp.Parts[i] = part
		if len(part.Data) == 0 {
			continue
		}
		data := make([]byte, len(part.Data))
		copy(data, part.Data)
		pos := int((h + uint64(i)) % uint64(len(data)))
		data[pos] ^= 0xFF
		cp.Parts[i].Data = data
	}
	return cp
}

// mix is a splitmix64-style hash of the seed and three indices.
func mix(seed int64, salt, a, b, c uint64) uint64 {
	x := uint64(seed)
	x ^= (salt + 1) * 0x9E3779B97F4A7C15
	x ^= (a + 1) * 0xBF58476D1CE4E5B9
	x ^= (b + 1) * 0x94D049BB133111EB
	x ^= (c + 1) * 0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// frac maps the hash to a uniform float64 in [0, 1).
func frac(seed int64, salt, a, b, c uint64) float64 {
	return float64(mix(seed, salt, a, b, c)>>11) / float64(1<<53)
}
