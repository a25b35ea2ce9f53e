// Package faults injects deterministic communication faults into a
// live or tcp run for chaos testing. An Injector built from a Plan wraps
// a rank's comm.Comm; the wrapper intercepts Send/Recv/Barrier and
// applies the plan's faults: dropping, delaying, duplicating or
// corrupting individual messages on a (src, dst) link, and killing a
// rank when it reaches its Nth communication operation.
//
// The schedule is a pure function of the Plan. Every fault is decided by
// hashing (Seed, src, dst, message index), never by a shared RNG or a
// shared log, so the same seed produces the same fault schedule
// regardless of goroutine interleaving — a failing chaos run is
// replayable by seed — and no state is shared between ranks: the sender
// of a message decides its faults, and its receiver recomputes the same
// decisions from its own count of the link's messages. Every rank of a
// run is wrapped by an injector built from the same Plan; one injector
// per process suffices, and the ranks of a run may span processes.
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
// receiver, which aborts the run with a diagnostic naming the link and
// the message — corruption is surfaced, never silently delivered to
// algorithm code.
package faults

import (
	"cmp"
	"fmt"
	"slices"
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

// Injector holds the fault schedule of one Plan. Create one per run in
// each process the run spans and wrap every local rank's comm.Comm with
// Wrap; the schedule needs nothing from the other processes' injectors.
type Injector struct {
	plan     Plan
	explicit map[[3]int][]Fault // (src,dst,msg) → faults

	mu    sync.Mutex // guards procs; taken once per Wrap
	procs []*proc
}

// New builds an injector for the plan. Rates are clamped to [0, 1].
func New(plan Plan) *Injector {
	clamp := func(r *float64) { *r = min(max(*r, 0), 1) }
	clamp(&plan.Drop)
	clamp(&plan.Duplicate)
	clamp(&plan.Corrupt)
	clamp(&plan.DelayProb)
	in := &Injector{plan: plan, explicit: make(map[[3]int][]Fault)}
	for _, f := range plan.Faults {
		k := [3]int{f.Src, f.Dst, f.Msg}
		in.explicit[k] = append(in.explicit[k], f)
	}
	return in
}

// Events returns the faults injected by the ranks this injector wrapped,
// in a canonical order (independent of goroutine interleaving). Each rank
// records its own faults as it runs, so read Events after the run: the
// merge is only complete, and only safe, once every wrapped rank is done.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []Event
	for _, p := range in.procs {
		out = append(out, p.events...)
	}
	slices.SortFunc(out, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Msg, b.Msg),
			cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Kind, b.Kind))
	})
	return out
}

// Wrap returns c with the plan's faults applied. Call it once per rank
// per run; every rank of the run must be wrapped by an injector built
// from the same Plan, so that each receiver recomputes its senders'
// decisions.
func (in *Injector) Wrap(c comm.Comm) comm.Comm {
	kill := -1
	for _, k := range in.plan.Kills {
		if k.Rank == c.Rank() {
			kill = k.Op
		}
	}
	p := &proc{inner: c, inj: in, kill: kill, links: make([]link, c.Size())}
	p.tr, _ = c.(obs.Tracer)
	p.share, _ = c.(comm.SharedSender)
	p.arrays, _ = c.(comm.ArraySource)
	in.mu.Lock()
	if in.procs == nil {
		in.procs = make([]*proc, 0, c.Size())
	}
	in.procs = append(in.procs, p)
	in.mu.Unlock()
	return p
}

// decision is the set of faults applying to one message.
type decision struct {
	drop, dup, corrupt bool
	delay              time.Duration
	corruptByte        uint64 // hash source for the flipped byte position
}

// decide computes the faults for message #msg on link src→dst. Pure
// function of the plan — this is what makes the schedule seed-stable,
// and what lets a receiver recompute the decisions its sender made.
func (in *Injector) decide(src, dst, msg int) decision {
	var d decision
	p := in.plan
	s, t, m := uint64(src), uint64(dst), uint64(msg)
	d.drop = p.Drop > 0 && frac(p.Seed, 1, s, t, m) < p.Drop
	d.dup = p.Duplicate > 0 && frac(p.Seed, 2, s, t, m) < p.Duplicate
	d.corrupt = p.Corrupt > 0 && frac(p.Seed, 3, s, t, m) < p.Corrupt
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
	if d.drop { // never delivered, so neither duplicated nor corrupted
		d.dup, d.corrupt = false, false
	}
	d.corruptByte = mix(p.Seed, 6, s, t, m)
	return d
}

// link is one rank's own side of its two links with a peer.
type link struct {
	sent int  // messages sent to the peer (fault indexing; includes dropped)
	next int  // index of the next message to receive from the peer
	dup  bool // the last message received was duplicated: its copy is still due
}

// proc is the per-rank faulted view of a comm.Comm. It forwards the
// iteration and phase markers, so traced events keep their stamps. Only
// its rank's goroutine touches it during the run.
type proc struct {
	inner  comm.Comm
	share  comm.SharedSender // inner, when the engine can skip its send copy
	arrays comm.ArraySource  // inner, when the engine gives its ranks run-scoped part storage
	tr     obs.Tracer        // inner, when the engine records its rank's events on a traced run
	inj    *Injector
	kill   int // op index at which this rank dies; -1 = never
	ops    int
	links  []link // by peer rank
	events []Event
}

var (
	_ comm.Comm         = (*proc)(nil)
	_ comm.SharedSender = (*proc)(nil)
	_ comm.ArraySource  = (*proc)(nil)
	_ comm.IterMarker   = (*proc)(nil)
	_ comm.PhaseMarker  = (*proc)(nil)
)

func (p *proc) Rank() int { return p.inner.Rank() }
func (p *proc) Size() int { return p.inner.Size() }

// BeginIter implements comm.IterMarker by forwarding to the engine.
func (p *proc) BeginIter(i int) { comm.MarkIter(p.inner, i) }

// BeginPhase implements comm.PhaseMarker by forwarding to the engine.
func (p *proc) BeginPhase(name string) { comm.MarkPhase(p.inner, name) }

// PartArray implements comm.ArraySource: the engine's run-scoped storage
// when it has one, so a faulted program builds its arrays where a clean
// one does.
func (p *proc) PartArray(n int) []comm.Part {
	if p.arrays != nil {
		return p.arrays.PartArray(n)
	}
	return make([]comm.Part, 0, n)
}

// record keeps one injected fault in the rank's own log and traces it.
func (p *proc) record(e Event) {
	p.events = append(p.events, e)
	p.trace(e)
}

// trace traces one injected fault through the rank it wraps (kind
// "fault", the fault name in obs.Event.Fault), which stamps it on its
// run's clock as it ends, so chaos lands in the same trace as the traffic
// that triggered it. A link fault is the sending rank's event, a kill the
// killed rank's.
func (p *proc) trace(e Event) {
	if p.tr == nil {
		return
	}
	oe := obs.Event{Kind: obs.KindFault, Fault: e.Kind.String(), Peer: e.Dst, Seq: e.Msg,
		Dur: network.Time(e.Delay.Nanoseconds())}
	if e.Kind == Kill {
		oe.Seq = e.Op
	}
	p.tr.Trace(oe)
}

// op counts one communication operation and kills the rank when its
// schedule says so.
func (p *proc) op() {
	n := p.ops
	p.ops++
	if p.kill >= 0 && n == p.kill {
		p.record(Event{Kind: Kill, Src: -1, Dst: -1, Msg: -1, Rank: p.Rank(), Op: n})
		panic(fmt.Errorf("faults: rank %d killed at operation %d (injected)", p.Rank(), n))
	}
}

// Send implements comm.Comm with the link's faults applied.
func (p *proc) Send(dst int, m comm.Message) { p.send(dst, m, false) }

// SendShared implements comm.SharedSender: Send that keeps the engine's
// uncopied path when the inner comm has one.
func (p *proc) SendShared(dst int, m comm.Message) { p.send(dst, m, p.share != nil) }

func (p *proc) send(dst int, m comm.Message, shared bool) {
	p.op()
	if dst < 0 || dst >= len(p.links) {
		p.inner.Send(dst, m) // the engine names the invalid rank
		return
	}
	src := p.Rank()
	l := &p.links[dst]
	idx := l.sent
	l.sent++
	d := p.inj.decide(src, dst, idx)
	ev := Event{Src: src, Dst: dst, Msg: idx, Rank: -1, Op: -1}
	delay := Event{Kind: Delay, Src: src, Dst: dst, Msg: idx, Rank: -1, Op: -1, Delay: d.delay}
	if d.delay > 0 {
		p.events = append(p.events, delay) // traced once it is over
	}
	if d.drop {
		ev.Kind = Drop
		p.record(ev)
	}
	if d.corrupt {
		ev.Kind = Corrupt
		p.record(ev)
		m = corruptCopy(m, d.corruptByte)
	}
	if d.dup {
		ev.Kind = Duplicate
		p.record(ev)
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
		p.trace(delay)
	}
	if d.drop {
		return // never handed to the engine
	}
	p.deliver(dst, m, shared)
	if d.dup {
		p.deliver(dst, m, shared)
	}
}

// deliver hands m to the engine, uncopied when shared.
func (p *proc) deliver(dst int, m comm.Message, shared bool) {
	if shared {
		p.share.SendShared(dst, m)
	} else {
		p.inner.Send(dst, m)
	}
}

// Recv implements comm.Comm: it takes the engine's next delivery from
// src and recomputes the sender's decisions to learn which message it
// is — past every dropped index — discarding the copy a duplicate left
// behind and aborting on detected corruption.
func (p *proc) Recv(src int) comm.Message {
	p.op()
	if src < 0 || src >= len(p.links) {
		return p.inner.Recv(src) // the engine names the invalid rank
	}
	l := &p.links[src]
	if l.dup {
		p.inner.Recv(src) // the duplicate, detected and discarded
		l.dup = false
	}
	// An arrival first: the index search below ends at the message that
	// arrived, so even a plan that drops everything never spins.
	m := p.inner.Recv(src)
	dst := p.Rank()
	d := p.inj.decide(src, dst, l.next)
	for d.drop {
		l.next++
		d = p.inj.decide(src, dst, l.next)
	}
	idx := l.next
	l.next++
	if d.corrupt {
		panic(fmt.Errorf("faults: rank %d detected corrupted delivery of msg #%d on link %d→%d (injected corruption)", dst, idx, src, dst))
	}
	l.dup = d.dup
	return m
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
