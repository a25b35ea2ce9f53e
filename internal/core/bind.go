package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/par"
)

// schedule is an algorithm of this package: every one is oblivious, its
// whole communication a function of the spec that can be written down
// before anything runs, as a comm.Script, which Bind compiles into the
// run's program.
type schedule struct {
	name  string
	coll  Collective
	write func(Spec) comm.Script
	// sections is set on the broadcasts that are nothing but a sectioning
	// of the spec (Steps).
	sections func(Spec) sectioning
	// declared marks a schedule that discovers its sources (WithDiscovery),
	// or runs one that does.
	declared bool
}

// sectioned is the broadcast that is the sectioning sec describes.
func sectioned(name string, sec func(Spec) sectioning) Algorithm {
	return schedule{name: name, coll: Broadcast, sections: sec, write: func(spec Spec) comm.Script { return sec(spec).script(spec) }}
}

func (a schedule) Name() string { return a.name }

func (a schedule) Collective() Collective { return a.coll }

// Run is the unbound Run: the calling rank performs its own part of the
// script and nothing is compiled for the others. On Compile's recorder it
// performs nothing and hands over its binding instead.
func (a schedule) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if r, ok := c.(*recorder); ok {
		r.bound = Bind(a, spec).(*bound)
		return mine
	}
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	if a.declared {
		checkDeclared(spec, c.Rank(), mine)
	}
	return a.write(spec).Run(c, mine)
}

// Bind specialises alg to spec: an algorithm of this package is compiled,
// once the spec has been validated against its own mesh, into the program
// every rank of the run executes; any other is returned as it is. Whoever
// launches the p processors of a run in one address space binds once and
// hands every processor the same value, which is read-only and whose Run
// accepts only the spec it was bound to.
func Bind(alg Algorithm, spec Spec) Algorithm {
	a, ok := alg.(schedule)
	if !ok {
		return alg
	}
	b := &bound{name: a.name, coll: a.coll, spec: spec, declared: a.declared}
	func() {
		defer func() { b.fail = recover() }()
		prog, err := a.script(spec).Compile(spec.P())
		if err != nil {
			panic(err)
		}
		b.prog = prog
	}()
	return b
}

// Compile returns the program alg executes on spec, for a machine of
// spec.P() ranks. An algorithm of this package, or one bound by Bind,
// compiles through Bind. Any other value is run once, as rank 0 of a
// machine on which nothing can be sent (recorder): a value that wraps an
// algorithm of this package and runs it on the communicator it was given
// yields that algorithm's program, and one that communicates by itself
// has none. A spec that does not bind and a value without a program are
// errors.
func Compile(alg Algorithm, spec Spec) (*comm.Program, error) {
	b, ok := Bind(alg, spec).(*bound)
	if !ok {
		var err error
		if b, err = record(alg, spec); err != nil {
			return nil, err
		}
	}
	switch fail := b.fail.(type) {
	case nil:
		return b.prog, nil
	case error:
		return nil, fail
	default:
		return nil, fmt.Errorf("core: %s: %v", b.name, fail)
	}
}

// record runs alg on a recorder and returns the binding it handed over.
func record(alg Algorithm, spec Spec) (b *bound, err error) {
	r := &recorder{size: spec.P()}
	defer func() {
		if p := recover(); p != nil {
			b, err = nil, fmt.Errorf("core: %s: %v", alg.Name(), p)
		}
	}()
	alg.Run(r, spec, comm.Message{})
	if r.bound == nil {
		return nil, fmt.Errorf("core: %s runs no algorithm of this package", alg.Name())
	}
	return r.bound, nil
}

// recorder is the communicator Compile runs a value without a program on:
// rank 0 of a machine of size ranks, on which every Send, Recv and
// Barrier panics. A schedule run on it records its binding and returns.
// It claims to meter virtual time (comm.Clock) for one reader, the
// benchmark's tracing decorator, which hands such a communicator to the
// algorithm it wraps as it is.
type recorder struct {
	size  int
	bound *bound
}

// outsideProgram is what a recorder panics with.
const outsideProgram = "communicates outside a program"

func (r *recorder) Rank() int              { return 0 }
func (r *recorder) Size() int              { return r.size }
func (r *recorder) Send(int, comm.Message) { panic(outsideProgram) }
func (r *recorder) Recv(int) comm.Message  { panic(outsideProgram) }
func (r *recorder) Barrier()               { panic(outsideProgram) }
func (r *recorder) AdvanceCombine(int)     {}

// Bindings memoizes Bind over the last few instances a warm engine ran:
// the paper's schedules are oblivious, so an instance — registry name
// plus spec, sources compared element by element — compiles to the same
// program every time, and an engine that runs it again need not compile
// it again. A spec that fails to bind is kept too; every rank of every
// run re-raises its error, as with Bind. The zero value is ready to use.
// It holds no lock: its owner serializes its runs.
type Bindings struct {
	slots [bindingsCap]binding
	clock uint64
}

// bindingsCap is how many instances Bindings keeps, the least recently
// used making way: a session cycling through the six collectives fits.
const bindingsCap = 8

type binding struct {
	name string
	spec Spec // Sources is the memo's own copy
	alg  Algorithm
	used uint64 // Bindings.clock at the last use; 0 is an empty slot
}

// Bind returns Bind(alg, spec), compiled once per instance for the
// registry's algorithms. Any other algorithm — one from outside this
// package, or a value built from registry entries (ReposTo, WithDiscovery,
// …), whose name does not identify it — is bound afresh.
func (m *Bindings) Bind(alg Algorithm, spec Spec) Algorithm {
	a, ok := alg.(schedule)
	if !ok || !registered(a.name) {
		return Bind(alg, spec)
	}
	m.clock++
	lru := 0
	for i := range m.slots {
		e := &m.slots[i]
		if e.used != 0 && e.name == a.name && e.spec.same(spec) {
			e.used = m.clock
			return e.alg
		}
		if e.used < m.slots[lru].used {
			lru = i
		}
	}
	// The bound value keeps its spec; a copy of the sources keeps the
	// caller's later writes to its slice out of both it and the key.
	spec.Sources = slices.Clone(spec.Sources)
	m.slots[lru] = binding{name: a.name, spec: spec, alg: Bind(alg, spec), used: m.clock}
	return m.slots[lru].alg
}

// script returns a's script on spec. Like Bind it panics on a spec that
// is invalid for its own mesh.
func (a schedule) script(spec Spec) comm.Script {
	if err := spec.Validate(spec.P()); err != nil {
		panic(err)
	}
	return a.write(spec)
}

// scriptOf returns the script of alg on spec, and panics on an algorithm
// from outside the package, which has none.
func scriptOf(alg Algorithm, spec Spec) comm.Script {
	a, ok := alg.(schedule)
	if !ok {
		panic(fmt.Sprintf("core: %s is not a schedule of this package", alg.Name()))
	}
	return a.script(spec)
}

// ProgramOf returns the program a bound algorithm executes — every rank's
// operations, compiled by Bind — or nil when it is not bound (or its spec
// did not bind). Run on a rank executes that rank's part of it, so
// whoever reads the program reads what the engines run.
func ProgramOf(alg Algorithm) *comm.Program {
	if b, ok := alg.(*bound); ok {
		return b.prog
	}
	return nil
}

// bound is an algorithm bound to one spec: its script, compiled for the
// whole machine.
type bound struct {
	name string
	coll Collective
	spec Spec
	prog *comm.Program
	// declared says the program discovers the source set (WithDiscovery):
	// every rank checks that its bundle says what the spec says of it.
	declared bool
	// fail is what binding panicked with (an invalid spec, say). Every
	// Run re-raises it, which is where the per-processor prelude raised
	// it, so engines keep reporting it per rank.
	fail any
}

func (b *bound) Name() string { return b.name }

func (b *bound) Collective() Collective { return b.coll }

func (b *bound) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	switch {
	case b.fail != nil:
		panic(b.fail)
	case c.Size() != b.spec.P():
		panic(b.spec.Validate(c.Size()))
	case !b.spec.same(spec):
		panic(fmt.Sprintf("core: %s is bound to another spec than the one it is run with", b.name))
	case b.declared:
		checkDeclared(spec, c.Rank(), mine)
	}
	return b.prog.Run(c, mine)
}

// same reports whether two specs describe the same instance; sharing the
// source slice, as every bind-once caller does, answers in O(1).
func (s Spec) same(o Spec) bool {
	if s.Rows != o.Rows || s.Cols != o.Cols || s.Indexing != o.Indexing || len(s.Sources) != len(o.Sources) {
		return false
	}
	return len(s.Sources) == 0 || &s.Sources[0] == &o.Sources[0] || slices.Equal(s.Sources, o.Sources)
}

// then is the script that runs first and, on the bundle it leaves in
// register 0, next; it releases what both hold.
func then(first, next comm.Script) comm.Script {
	return comm.Script{Regs: max(first.Regs, next.Regs), Done: both(first.Done, next.Done), Rank: func(b *comm.Builder, rank int) {
		first.Rank(b, rank)
		next.Rank(b, rank)
	}}
}

// both is the hook that releases a and b, either of which may be nil.
func both(a, b comm.Releaser) comm.Releaser {
	if a == nil || b == nil {
		return cmp.Or(a, b)
	}
	return releasers{a, b}
}

type releasers [2]comm.Releaser

func (r releasers) Release() { r[0].Release(); r[1].Release() }

// barrier is the script every coordinated run opens with.
var barrier = comm.Script{Regs: 1, Rank: func(b *comm.Builder, _ int) { b.Barrier() }}

// segment is a contiguous run of line positions in the sectioning
// recursion.
type segment struct{ lo, n int }

// lineIters returns the number of levels the (k+1)-section of a line of n
// processors needs; for the halving (k=1) that is ⌈log2 n⌉.
func lineIters(k, n int) int {
	it := 0
	for size := n; size > 1; size = (size + k) / (k + 1) {
		it++
	}
	return it
}

// Step is one entry of a sectioning broadcast's compiled schedule: at
// level Level processor Rank sends its bundle to Peer, or (Recv) receives
// Peer's bundle and merges it into its own.
type Step struct {
	Level, Rank, Peer int32
	Recv              bool
}

// Steps streams the schedule alg compiles for spec to visit, and reports
// whether alg has one: Br_Lin, Br_kport<k>, Br_xy_* and Br_dims do, their
// whole communication after the opening barrier being these steps. Every
// receive follows the send it matches and a rank's steps come in the order
// it executes them, so one pass with per-rank state can replay the run.
// It is the stream Bind files rank by rank into one slab. The spec must be
// valid for its own mesh, as for Bind; Steps panics otherwise.
func Steps(alg Algorithm, spec Spec, visit func(Step)) bool {
	a, ok := alg.(schedule)
	if !ok || a.sections == nil {
		return false
	}
	if err := spec.Validate(spec.P()); err != nil {
		panic(err)
	}
	a.sections(spec).stream(spec, visit)
	return true
}

// sectioning describes a broadcast that is nothing but (k+1)-sectioning
// along lines: every line of the first pass, then every line of the
// next. Br_Lin is one pass over one line, the whole machine; Br_dims is
// one pass per dimension.
type sectioning struct {
	k      int
	phase  string // what a trace calls every level
	passes []pass
}

// pass partitions the machine into p/n disjoint lines of n processors
// each, at(line, pos) being the rank at position pos of a line.
type pass struct {
	n  int
	at func(line, pos int) int
}

// levels returns the number of levels all passes take together.
func (s sectioning) levels() int {
	iters := 0
	for _, ps := range s.passes {
		iters += lineIters(s.k, ps.n)
	}
	return iters
}

// stream runs the holder evolution from the spec's sources through every
// pass and hands each step to emit, on scratch it gives back.
func (s sectioning) stream(spec Spec, emit func(Step)) {
	f, cp := s.compiler(spec)
	cp.emit = emit
	s.evolve(&cp, spec)
	f.Release()
}

// filing is what a sectioning compile stores: its step slab, rank r's
// steps at steps[off[r]:off[r+1]], and its compiler's scratch. The steps
// are a function of the spec, computed and then dropped: a compile takes
// a filing from filings and its script's hook (comm.Script.Done) gives it
// back, each slice reallocated only when the instance outgrows it.
type filing struct {
	steps []step
	off   []int32
	holds []bool
	segs  []segment
	ints  []int
}

var filings par.FreeList[*filing]

// Release gives f to the next compile.
func (f *filing) Release() { filings.Put(f) }

// compiler takes a filing and returns it with a compiler for the passes
// of s on spec, on its scratch sized for the longest line and the
// largest group, so that line never grows it and stores nothing back —
// which is what lets emit's closure stay on its caller's stack.
func (s sectioning) compiler(spec Spec) (*filing, compiler) {
	f, _ := filings.Get()
	if f == nil {
		f = new(filing)
	}
	longest := 0
	for _, ps := range s.passes {
		longest = max(longest, ps.n)
	}
	// A line of n processors never has more than n segments.
	f.holds = slices.Grow(f.holds[:0], spec.P())[:spec.P()]
	f.segs = slices.Grow(f.segs[:0], 2*longest)[:2*longest]
	f.ints = slices.Grow(f.ints[:0], longest+s.k+1)[:longest+s.k+1]
	return f, compiler{holds: f.holds, segs: f.segs[:0:longest], next: f.segs[longest:longest],
		ranks: f.ints[:longest], members: f.ints[longest:longest]}
}

// evolve runs the holder evolution on cp from the spec's sources, so a
// compiler can run it more than once. The holder flags carry over from
// pass to pass: a line's sectioning leaves all of its processors holding
// iff any of them did.
func (s sectioning) evolve(cp *compiler, spec Spec) {
	clear(cp.holds)
	for _, src := range spec.Sources {
		cp.holds[src] = true
	}
	base := 0
	for _, ps := range s.passes {
		// A line's ranks are looked up once, not per level.
		ranks := cp.ranks[:ps.n]
		for l := 0; l < spec.P()/ps.n; l++ {
			for pos := range ranks {
				ranks[pos] = ps.at(l, pos)
			}
			cp.line(s.k, base, ranks)
		}
		base += lineIters(s.k, ps.n)
	}
}

// compiler runs the holder evolution of the sectioning broadcasts for the
// whole machine at once and emits every processor's steps. All
// processors know the source positions (Section 1), so the evolution is
// a pure function of the spec: computing it per processor, as the
// paper's model has it, would repeat it p times in one address space.
// Bind runs it twice, once to count each processor's steps and once to
// file them.
type compiler struct {
	holds []bool // by rank: does it hold messages at this point
	emit  func(Step)
	// Scratch reused from line to line (compiler sizes it): the segments of
	// a level and of the next, the ranks of the line's positions and those
	// of one group.
	segs, next     []segment
	ranks, members []int
}

func (cp *compiler) add(it, rank, peer int, recv bool) {
	cp.emit(Step{int32(it), int32(rank), int32(peer), recv})
}

// line compiles the (k+1)-section broadcast along one line of n =
// len(at) processors, at[i] being the rank at line position i, as levels base,
// base+1, … Per level, for each segment [lo, lo+n) with h = ⌈n/(k+1)⌉:
//
//   - group i (i < h) is the evenly strided positions lo+i+j·h inside the
//     segment; its members exchange bundles all-to-all and all end
//     holding the group union. At k=1 (Br_Lin's recursive halving) a
//     group is the pair (lo+i, lo+i+h): an exchange when both hold
//     messages, a single send when only one does (the paper's rule);
//   - the segment then splits into the k+1 subsegments [lo+j·h, …): the
//     member of group i in subsegment j carried the group's union there,
//     so each subsegment collectively holds everything the segment held;
//   - when the last subsegment is short, the groups with no member in it
//     (exactly those with i ≥ n − ⌊(n−1)/h⌋·h) one-way their union from
//     their first member to the segment's last position. At k=1 that is
//     the unpaired middle of an odd segment — the generalization that
//     makes Br_Lin correct on arbitrary machine sizes, and why odd
//     dimensions grow sources faster (the machine-size effect of
//     Sections 4–5).
//
// Distinct positions of a segment always hold origin-disjoint bundles
// (group unions combine disjoint per-position bundles; the straggler
// target never belongs to a straggler group), so merging never
// duplicates a message.
func (cp *compiler) line(k, base int, at []int) {
	n := len(at)
	segs, next, members := append(cp.segs[:0], segment{0, n}), cp.next, cp.members
	for it, end := base, base+lineIters(k, n); it < end; it++ {
		next = next[:0]
		for _, g := range segs {
			if g.n <= 1 {
				continue
			}
			h := (g.n + k) / (k + 1)
			for i := 0; i < h; i++ {
				members = members[:0]
				for pos := g.lo + i; pos < g.lo+g.n; pos += h {
					members = append(members, at[pos])
				}
				cp.exchange(it, members)
			}
			last := at[g.lo+g.n-1]
			for i := g.n - (g.n-1)/h*h; i < h; i++ {
				if u := at[g.lo+i]; cp.holds[u] {
					cp.add(it, u, last, false)
					cp.add(it, last, u, true)
					cp.holds[last] = true
				}
			}
			for lo := g.lo; lo < g.lo+g.n; lo += h {
				next = append(next, segment{lo, min(h, g.lo+g.n-lo)})
			}
		}
		segs, next = next, segs
	}
}

// exchange compiles one all-to-all among the member ranks: every holder
// sends its bundle to every other member, then every member receives and
// merges from every other holder. All sends of a rank precede its first
// receive, so the step is deadlock-free under buffered sends.
func (cp *compiler) exchange(it int, members []int) {
	any := false
	for _, u := range members {
		if cp.holds[u] {
			any = true
			for _, v := range members {
				if v != u {
					cp.add(it, u, v, false)
				}
			}
		}
	}
	for _, u := range members {
		for _, v := range members {
			if v != u && cp.holds[v] {
				cp.add(it, u, v, true)
			}
		}
	}
	for _, u := range members {
		cp.holds[u] = cp.holds[u] || any
	}
}

// step is a Step in its own processor's slice of the slab.
type step struct {
	peer int32 // partner rank
	iter int16 // level the step belongs to
	recv bool  // receive the partner's bundle and merge it; otherwise send ours
}

// script files the stream into a filing and returns the communicating
// part of the broadcast, which gives the filing back: after the barrier
// every processor executes only its own steps, marking each level
// whether or not it is active in it, and ends holding all s original
// messages. The evolution runs twice on one scratch: once to count each
// rank's steps, so the slab is exact, and once to file them.
func (s sectioning) script(spec Spec) comm.Script {
	p, iters, parts, phase := spec.P(), s.levels(), spec.S(), s.phase
	f, cp := s.compiler(spec)
	// off[r+1] counts rank r's steps, then is where they start, the cursor
	// they are filed at, and so where they end.
	off := slices.Grow(f.off[:0], p+1)[:p+1]
	clear(off)
	cp.emit = func(st Step) { off[st.Rank+1]++ }
	s.evolve(&cp, spec)
	total := int32(0)
	for r := 1; r <= p; r++ {
		off[r], total = total, total+off[r]
	}
	steps := slices.Grow(f.steps[:0], int(total))[:total]
	cp.emit = func(st Step) {
		steps[off[st.Rank+1]] = step{peer: st.Peer, iter: int16(st.Level), recv: st.Recv}
		off[st.Rank+1]++
	}
	s.evolve(&cp, spec)
	f.steps, f.off = steps, off
	return comm.Script{Regs: 1, Done: f, Rank: func(b *comm.Builder, rank int) {
		b.Barrier()
		b.Grow(0, parts)
		mine := f.steps[f.off[rank]:f.off[rank+1]]
		for it := 0; it < iters; it++ {
			b.Iter(it)
			b.Phase(phase)
			for ; len(mine) > 0 && int(mine[0].iter) == it; mine = mine[1:] {
				if st := mine[0]; st.recv {
					b.Merge(int(st.peer), 0)
				} else {
					b.Send(int(st.peer), 0)
				}
			}
		}
	}}
}
