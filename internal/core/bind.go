package core

import (
	"fmt"
	"slices"

	"repro/internal/comm"
)

// Binder is implemented by algorithms whose Run starts with work that is
// a pure function of the spec — validation, line tables, the holder
// evolution, ideal targets — and can therefore be done once per run
// instead of once per processor.
type Binder interface {
	// Bind returns the algorithm specialised to spec. The result is
	// read-only and safe to share between all processors of a run; its
	// Run accepts only the spec it was bound to.
	Bind(spec Spec) Algorithm
}

// Bind specialises alg to spec if it can be (see Binder) and returns alg
// itself otherwise. Whoever launches the p processors of a run in one
// address space binds once and hands every processor the same value;
// calling Run on an unbound Binder binds per call.
func Bind(alg Algorithm, spec Spec) Algorithm {
	if b, ok := alg.(Binder); ok {
		return b.Bind(spec)
	}
	return alg
}

// scripted is implemented by algorithms whose whole communication is a
// function of the spec and can therefore be written down before anything
// runs: as a comm.Script, which Bind compiles into the run's program.
type scripted interface {
	Algorithm
	// script writes alg's run on spec, which is valid for its own mesh.
	script(spec Spec) comm.Script
}

// scriptOf returns the script of alg on spec when alg has one. Like Bind
// it panics on a spec that is invalid for its own mesh.
func scriptOf(alg Algorithm, spec Spec) (comm.Script, bool) {
	a, ok := alg.(scripted)
	if !ok {
		return comm.Script{}, false
	}
	if err := spec.Validate(spec.P()); err != nil {
		panic(err)
	}
	return a.script(spec), true
}

// ProgramOf returns the program a bound algorithm executes — every rank's
// operations, compiled by Bind — or nil when its body is code (or it is
// not bound at all). Run on a rank executes that rank's part of it, so
// whoever reads the program reads what the engines run.
func ProgramOf(alg Algorithm) *comm.Program {
	if b, ok := alg.(*bound); ok {
		return b.prog
	}
	return nil
}

// body is what is left of an algorithm once its spec is bound: the part
// that communicates.
type body func(c comm.Comm, mine comm.Message) comm.Message

// bound is an algorithm bound to one spec.
type bound struct {
	name string
	coll Collective
	spec Spec
	// The part that communicates: as data when the algorithm is scripted,
	// as code otherwise.
	prog *comm.Program
	run  body
	// fail is what binding panicked with (an invalid spec, say). Every
	// Run re-raises it, which is where the per-processor prelude raised
	// it, so engines keep reporting it per rank.
	fail any
}

// bind builds the bound form of alg: build runs once, after the spec has
// been validated against its own mesh, and fills in prog or run.
func bind(alg Algorithm, spec Spec, build func(b *bound)) Algorithm {
	b := &bound{name: alg.Name(), coll: CollectiveOf(alg), spec: spec}
	func() {
		defer func() { b.fail = recover() }()
		if err := spec.Validate(spec.P()); err != nil {
			panic(err)
		}
		build(b)
	}()
	return b
}

// bindScript binds a scripted algorithm: its script, compiled for the
// whole machine.
func bindScript(a scripted, spec Spec) Algorithm {
	return bind(a, spec, func(b *bound) { b.prog = a.script(spec).Compile(spec.P()) })
}

// runScript is the unbound Run of a scripted algorithm: the calling rank
// performs its own part of the script and nothing is compiled for the
// others.
func runScript(a scripted, c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	return a.script(spec).Run(c, mine)
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
	case b.prog != nil:
		return b.prog.Run(c, mine)
	}
	return b.run(c, mine)
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
// register 0, next.
func then(first, next comm.Script) comm.Script {
	return comm.Script{Regs: max(first.Regs, next.Regs), Rank: func(b *comm.Builder, rank int) {
		first.Rank(b, rank)
		next.Rank(b, rank)
	}}
}

// barrier is the script every coordinated run opens with.
var barrier = comm.Script{Regs: 1, Rank: func(b *comm.Builder, _ int) { b.Barrier() }}

// schedule is a registry entry that is nothing but a script of its spec:
// a name, the collective it implements, and how to write it.
type schedule struct {
	name  string
	coll  Collective
	write func(Spec) comm.Script
}

func (a schedule) Name() string { return a.name }

func (a schedule) Collective() Collective { return a.coll }

func (a schedule) script(spec Spec) comm.Script { return a.write(spec) }

func (a schedule) Bind(spec Spec) Algorithm { return bindScript(a, spec) }

func (a schedule) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	return runScript(a, c, spec, mine)
}

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
// It is the stream Bind buckets into per-rank lists. The spec must be
// valid for its own mesh, as for Bind; Steps panics otherwise.
func Steps(alg Algorithm, spec Spec, visit func(Step)) bool {
	a, ok := alg.(sectioned)
	if !ok {
		return false
	}
	if err := spec.Validate(spec.P()); err != nil {
		panic(err)
	}
	a.sections(spec).stream(spec, visit)
	return true
}

// sectioned is implemented by the broadcasts whose communication is a
// sectioning of the spec: Br_Lin, Br_kport<k>, Br_xy_* and Br_dims.
type sectioned interface {
	Algorithm
	sections(Spec) sectioning
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
// pass and hands each step to emit. The holder flags carry over from
// pass to pass: a line's sectioning leaves all of its processors holding
// iff any of them did.
func (s sectioning) stream(spec Spec, emit func(Step)) {
	longest := 0
	for _, ps := range s.passes {
		longest = max(longest, ps.n)
	}
	// A line of n processors never has more than n segments.
	segs := make([]segment, 2*longest)
	cp := &compiler{
		holds: spec.holderFlags(), emit: emit,
		segs: segs[:0:longest], next: segs[longest:longest], members: make([]int, 0, s.k+1),
	}
	base := 0
	for _, ps := range s.passes {
		for l := 0; l < spec.P()/ps.n; l++ {
			cp.line(s.k, base, ps.n, func(pos int) int { return ps.at(l, pos) })
		}
		base += lineIters(s.k, ps.n)
	}
}

// compiler runs the holder evolution of the sectioning broadcasts once
// for the whole machine and emits every processor's steps. All
// processors know the source positions (Section 1), so the evolution is
// a pure function of the spec: computing it per processor, as the
// paper's model has it, would repeat it p times in one address space.
type compiler struct {
	holds []bool // by rank: does it hold messages at this point
	emit  func(Step)
	// Scratch reused from line to line. stream sizes it for the longest
	// line and the largest group, so line never grows it and stores nothing
	// back — which is what lets emit's closure stay on its caller's stack.
	segs, next []segment
	members    []int
}

func (cp *compiler) add(it, rank, peer int, recv bool) {
	cp.emit(Step{int32(it), int32(rank), int32(peer), recv})
}

// line compiles the (k+1)-section broadcast along one line of n
// processors, at(i) being the rank at line position i, as levels base,
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
func (cp *compiler) line(k, base, n int, at func(pos int) int) {
	segs, next, members := append(cp.segs[:0], segment{0, n}), cp.next, cp.members
	for it := base; it < base+lineIters(k, n); it++ {
		next = next[:0]
		for _, g := range segs {
			if g.n <= 1 {
				continue
			}
			h := (g.n + k) / (k + 1)
			for i := 0; i < h; i++ {
				members = members[:0]
				for pos := g.lo + i; pos < g.lo+g.n; pos += h {
					members = append(members, at(pos))
				}
				cp.exchange(it, members)
			}
			last := at(g.lo + g.n - 1)
			for i := g.n - (g.n-1)/h*h; i < h; i++ {
				if u := at(g.lo + i); cp.holds[u] {
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

// step is a Step in its own processor's list.
type step struct {
	peer int32 // partner rank
	next int32 // the processor's next step in the slab, 0 after its last
	iter int16 // level the step belongs to
	recv bool  // receive the partner's bundle and merge it; otherwise send ours
}

// script records the stream as per-rank lists threaded through one slab
// and returns the communicating part of the broadcast: after the barrier
// every processor executes only its own steps, marking each level whether
// or not it is active in it, and ends holding all s original messages.
func (s sectioning) script(spec Spec) comm.Script {
	p, iters, parts := spec.P(), s.levels(), spec.S()
	// Together the processors take at most k sends, k receives and a
	// straggler's one-way each per level. Slot 0 stays unused: it is what
	// next says after a processor's last step.
	rec := make([]step, 1, 1+(2*s.k+1)*p*iters)
	ends := make([]int32, 2*p)
	first, last := ends[:p], ends[p:]
	s.stream(spec, func(st Step) {
		i := int32(len(rec))
		rec = append(rec, step{peer: st.Peer, iter: int16(st.Level), recv: st.Recv})
		if l := last[st.Rank]; l != 0 {
			rec[l].next = i
		} else {
			first[st.Rank] = i
		}
		last[st.Rank] = i
	})
	// The script keeps the slice under another name, so that rec, which the
	// recording closure writes, need not move to the heap with it.
	steps, phase := rec, s.phase
	return comm.Script{Regs: 1, Rank: func(b *comm.Builder, rank int) {
		b.Barrier()
		b.Grow(0, parts)
		at := first[rank]
		for it := 0; it < iters; it++ {
			b.Iter(it)
			b.Phase(phase)
			for ; at != 0 && int(steps[at].iter) == it; at = steps[at].next {
				if st := steps[at]; st.recv {
					b.Merge(int(st.peer), 0)
				} else {
					b.Send(int(st.peer), 0)
				}
			}
		}
	}}
}
