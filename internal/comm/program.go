package comm

import (
	"fmt"
	"math"
)

// The paper's schedules are oblivious: every processor knows the source
// positions, so who sends what to whom, and when, is a function of the
// instance and not of the data. A Script writes such a schedule down per
// rank, as operations on a handful of registers holding bundles; compiled
// for a whole machine it is a Program, which any engine can execute rank
// by rank (Run) and which the simulator can replay without running the
// algorithm at all — it needs the bundles' lengths only.

// OpKind says what an Op does.
type OpKind uint8

// The operations. A register is a bundle a rank holds while the program
// runs; the rank's initial bundle enters in register 0 and every other
// register starts empty.
const (
	// OpSend sends register Reg to Peer.
	OpSend OpKind = iota + 1
	// OpMove sends register Reg to Peer and leaves it empty.
	OpMove
	// OpToken sends Peer an empty message tagged Tag.
	OpToken
	// OpRecv receives from Peer into register Reg, replacing what it held.
	OpRecv
	// OpMerge receives from Peer, charges combining the received bytes and
	// appends the message to register Reg.
	OpMerge
	// OpDrop receives from Peer and discards the message.
	OpDrop
	// OpCombine charges combining the bytes register Reg holds.
	OpCombine
	// OpSwap exchanges registers 0 and Reg.
	OpSwap
	// OpGrow moves register Reg to an array of its own with room for Arg
	// parts (Message.Grow). It costs memory, not simulated time.
	OpGrow
	// OpBarrier enters the machine-wide barrier.
	OpBarrier
	// OpIter begins iteration Arg.
	OpIter
	// OpPhase begins the phase named by entry Arg of the program's table.
	OpPhase
)

// Op is one operation of one rank, packed into eight bytes: the slab of a
// program is the largest thing a replayed run allocates.
type Op struct {
	Kind OpKind
	reg  int16 // the register, or an OpToken's tag
	arg  int32 // the peer, or an OpGrow's part count, an OpIter's or OpPhase's index
}

// Peer returns the partner rank of a send or receive.
func (op Op) Peer() int { return int(op.arg) }

// Reg returns the register the operation reads or writes.
func (op Op) Reg() int { return int(op.reg) }

// Tag returns the tag of an OpToken.
func (op Op) Tag() int { return int(op.reg) }

// Arg returns the part count of an OpGrow, the iteration of an OpIter or
// the index of an OpPhase in the program's table.
func (op Op) Arg() int { return int(op.arg) }

// Script is a schedule written per rank: Rank(b, r) writes the operations
// rank r executes, in order, to b. It must write the same operations every
// time it is asked.
type Script struct {
	// Regs is the number of registers a rank needs, at least one; with
	// more than one the rank's result is their concatenation in register
	// order.
	Regs int
	Rank func(b *Builder, rank int)
}

// Program is a Script compiled for a machine of p ranks: every rank's
// operations, in one slab.
type Program struct {
	regs   int
	phases []string
	ops    []Op
	off    []int32 // rank r's operations are ops[off[r]:off[r+1]]
	// Where phases starts out: few programs name more than two.
	fewPhases [2]string
}

// P returns the number of ranks the program was compiled for.
func (pg *Program) P() int { return len(pg.off) - 1 }

// Regs returns the number of registers per rank.
func (pg *Program) Regs() int { return pg.regs }

// Ops returns rank's operations.
func (pg *Program) Ops(rank int) []Op { return pg.ops[pg.off[rank]:pg.off[rank+1]] }

// Phase returns the name an OpPhase with the given Arg begins.
func (pg *Program) Phase(arg int) string { return pg.phases[arg] }

// Builder is what a Script writes to. It counts the operations, records
// them into a Program, or performs them at once on a communicator — the
// script cannot tell which.
type Builder struct {
	n     int      // counting: operations so far
	pg    *Program // recording
	rank  int      // recording: the rank being written
	x     executor // performing, when x.c is set
	phase string   // the phase the writing rank is in

	// Set between Sub and Top: ranks are indices into members, local is
	// the writing rank's.
	members []int
	local   int
}

func (b *Builder) emit(op Op) {
	switch {
	case b.x.c != nil:
		b.x.do(op)
	case b.pg != nil:
		if op.Kind != OpToken && uint(op.reg) >= uint(b.pg.regs) {
			panic(fmt.Sprintf("comm: rank %d uses register %d of %d", b.rank, op.reg, b.pg.regs))
		}
		b.pg.ops = append(b.pg.ops, op)
	default:
		b.n++
	}
}

// on is an operation of the given kind on register reg with peer, a rank
// of the subgroup between Sub and Top.
func (b *Builder) on(kind OpKind, peer, reg int) Op {
	if b.members != nil {
		peer = b.members[peer]
	}
	return Op{Kind: kind, reg: int16(reg), arg: int32(peer)}
}

// Swap exchanges registers 0 and reg: a script whose result is more than
// one register files the bundle the rank enters with under its own.
func (b *Builder) Swap(reg int) { b.emit(Op{Kind: OpSwap, reg: int16(reg)}) }

// Send sends register reg to peer.
func (b *Builder) Send(peer, reg int) { b.emit(b.on(OpSend, peer, reg)) }

// Move sends register reg to peer and leaves it empty.
func (b *Builder) Move(peer, reg int) { b.emit(b.on(OpMove, peer, reg)) }

// Recv receives from peer into register reg, replacing what it held.
func (b *Builder) Recv(peer, reg int) { b.emit(b.on(OpRecv, peer, reg)) }

// Merge receives from peer, charges combining the received bytes and
// appends the message to register reg.
func (b *Builder) Merge(peer, reg int) { b.emit(b.on(OpMerge, peer, reg)) }

// Combine charges combining the bytes register reg holds.
func (b *Builder) Combine(reg int) { b.emit(Op{Kind: OpCombine, reg: int16(reg)}) }

// Grow gives register reg an array of its own with room for n parts, the
// bundle's final size (see Message.Grow).
func (b *Builder) Grow(reg, n int) { b.emit(Op{Kind: OpGrow, reg: int16(reg), arg: int32(n)}) }

// Iter begins iteration i.
func (b *Builder) Iter(i int) { b.emit(Op{Kind: OpIter, arg: int32(i)}) }

// Phase begins the named phase, unless the rank is in it already.
func (b *Builder) Phase(name string) {
	if name == b.phase {
		return
	}
	b.phase = name
	if b.x.c != nil {
		MarkPhase(b.x.c, name)
		return
	}
	i := 0
	if b.pg != nil {
		for i < len(b.pg.phases) && b.pg.phases[i] != name {
			i++
		}
		if i == len(b.pg.phases) {
			b.pg.phases = append(b.pg.phases, name)
		}
	}
	b.emit(Op{Kind: OpPhase, arg: int32(i)})
}

// Barrier enters the barrier: the machine's, or between Sub and Top the
// subgroup's dissemination barrier (the machine's would involve ranks
// outside the group), whose empty messages carry tag -1.
func (b *Builder) Barrier() {
	if b.members == nil {
		b.emit(Op{Kind: OpBarrier})
		return
	}
	dissemination(len(b.members), b.local, func(to, from int) {
		b.emit(b.on(OpToken, to, -1))
		b.emit(b.on(OpDrop, from, 0))
	})
}

// Sub narrows the builder to a subgroup of the machine, the
// MPI_Comm_split analogue the partitioning algorithms (Part_*) need to
// broadcast inside each machine half: until Top, ranks are indices into
// members (sorted global ranks) and Barrier synchronises the members only.
// local is the writing rank's index.
func (b *Builder) Sub(members []int, local int) { b.members, b.local = members, local }

// Top ends a Sub.
func (b *Builder) Top() { b.members = nil }

// Compile writes the script for every rank of a machine of p. The script
// runs twice, once to size the slab and once to fill it.
func (s Script) Compile(p int) *Program {
	if s.Regs > math.MaxInt16 {
		panic(fmt.Sprintf("comm: a script with %d registers", s.Regs))
	}
	var b Builder
	for r := 0; r < p; r++ {
		b.phase = ""
		s.Rank(&b, r)
	}
	pg := &Program{regs: max(s.Regs, 1), ops: make([]Op, 0, b.n), off: make([]int32, p+1)}
	pg.phases = pg.fewPhases[:0]
	b.pg = pg
	for r := 0; r < p; r++ {
		b.rank, b.phase = r, ""
		s.Rank(&b, r)
		pg.off[r+1] = int32(len(pg.ops))
	}
	return pg
}

// Run executes the calling rank's part of the script on c without
// compiling anything: the operations are performed as the script writes
// them. mine is the rank's initial bundle; the result is its final one.
func (s Script) Run(c Comm, mine Message) Message {
	b := Builder{x: newExecutor(c, s.Regs, mine, nil)}
	s.Rank(&b, c.Rank())
	return b.x.result()
}

// Run executes the calling rank's operations on c. mine is the rank's
// initial bundle; the result is its final one.
func (pg *Program) Run(c Comm, mine Message) Message {
	if c.Size() != pg.P() {
		panic(fmt.Sprintf("comm: program for %d ranks run on a machine of %d", pg.P(), c.Size()))
	}
	x := newExecutor(c, pg.regs, mine, pg.phases)
	for _, op := range pg.Ops(c.Rank()) {
		x.do(op)
	}
	return x.result()
}

// executor performs operations on a communicator. The simulator's replay
// (sim.Replay) is the other reader of an Op; it tracks lengths where this
// moves bundles.
type executor struct {
	c Comm
	// Register 0, and the others if there are any: the common one-register
	// program costs its ranks no register file.
	r0     Message
	more   []Message
	tag    int // of the bundle the rank entered with
	phases []string
}

func newExecutor(c Comm, regs int, mine Message, phases []string) executor {
	x := executor{c: c, r0: mine, tag: mine.Tag, phases: phases}
	if regs > 1 {
		x.more = make([]Message, regs-1)
	}
	return x
}

func (x *executor) do(op Op) {
	reg := &x.r0
	if op.Kind != OpToken && op.reg > 0 {
		reg = &x.more[op.reg-1]
	}
	switch op.Kind {
	case OpSend:
		x.c.Send(op.Peer(), *reg)
	case OpMove:
		x.c.Send(op.Peer(), *reg)
		*reg = Message{}
	case OpToken:
		x.c.Send(op.Peer(), Message{Tag: op.Tag()})
	case OpRecv:
		*reg = x.c.Recv(op.Peer())
	case OpMerge:
		m := x.c.Recv(op.Peer())
		ChargeCombine(x.c, m.Len())
		*reg = reg.Append(m)
	case OpDrop:
		x.c.Recv(op.Peer())
	case OpCombine:
		ChargeCombine(x.c, reg.Len())
	case OpSwap:
		x.r0, *reg = *reg, x.r0
	case OpGrow:
		*reg = reg.Grow(op.Arg())
	case OpBarrier:
		x.c.Barrier()
	case OpIter:
		MarkIter(x.c, op.Arg())
	case OpPhase:
		MarkPhase(x.c, x.phases[op.Arg()])
	default:
		panic(fmt.Sprintf("comm: unknown operation %d", op.Kind))
	}
}

// result is the rank's final bundle: its one register, or the registers
// joined in order into a bundle whose part array is sized once.
func (x *executor) result() Message {
	if x.more == nil {
		return x.r0
	}
	n := len(x.r0.Parts)
	for _, r := range x.more {
		n += len(r.Parts)
	}
	out := Message{Tag: x.tag}.Grow(n).Append(x.r0)
	for _, r := range x.more {
		out = out.Append(r)
	}
	return out
}
