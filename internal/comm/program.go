package comm

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/par"
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
// register starts empty. A register keeps the tag it starts with: the
// operations move parts, not tags.
const (
	// OpSend sends register Reg to Peer.
	OpSend OpKind = iota + 1
	// OpMove sends register Reg to Peer and leaves it empty.
	OpMove
	// OpToken sends Peer a message that is no register's: entry Reg of the
	// program's token table (Program.Token) gives its tag and size.
	OpToken
	// OpRecv receives from Peer into register Reg, replacing what it held.
	OpRecv
	// OpMerge receives from Peer, charges combining the received bytes and
	// appends the message to register Reg.
	OpMerge
	// OpDrop receives from Peer and discards the message.
	OpDrop
	// OpFold receives from Peer — from nobody when Peer is -1 —, charges
	// combining the received bytes, and folds register Reg and the message
	// into one ReducedOrigin part (Fold).
	OpFold
	// OpSendParts sends the parts of register Reg a selector picks; entry
	// Arg of the program's selection table (Program.Selection) gives the
	// selector and the peer.
	OpSendParts
	// OpTake appends the parts of register Reg a selector picks to another
	// register and drops the rest of Reg; entry Arg of the selection table
	// gives the selector and the register. Taking into Reg itself narrows
	// or reorders it.
	OpTake
	// OpCombine charges combining the bytes register Reg holds.
	OpCombine
	// OpSwap exchanges registers 0 and Reg.
	OpSwap
	// OpGrow moves register Reg to an array of its own with room for Arg
	// parts, the bundle's final size: the merges then neither regrow the
	// array step by step nor append in place to one another processor can
	// see (a message sent uncopied shares its sender's array). It costs
	// memory, not simulated time.
	OpGrow
	// OpBarrier enters the machine-wide barrier.
	OpBarrier
	// OpIter begins iteration Arg. Most iterations begin without one: an
	// operation's Adv counts the iterations begun, one after another, just
	// before it; an OpIter marks a jump, or where a rank's marks end.
	OpIter
	// OpPhase begins the phase named by entry Arg of the program's table.
	OpPhase
)

// Op is one operation of one rank, packed into eight bytes: the slab of a
// program is the largest thing a replayed run allocates. What does not fit
// — a selector, a token's tag and size — sits in a table of the program
// the operation indexes.
type Op struct {
	Kind OpKind
	adv  uint8 // the iterations begun, one after another, before the operation
	reg  int16 // the register, or an OpToken's entry in the token table
	arg  int32 // the peer, a table index, or an OpGrow's part count, an OpIter's index
}

// Peer returns the partner rank of an OpSend, OpMove, OpToken or receive.
func (op Op) Peer() int { return int(op.arg) }

// Reg returns the register the operation reads or writes.
func (op Op) Reg() int { return int(op.reg) }

// Arg returns the part count of an OpGrow, the iteration of an OpIter or
// the index of an OpPhase in the program's table.
func (op Op) Arg() int { return int(op.arg) }

// Adv returns the number of iterations the rank begins, one after another,
// before the operation: the iterations after the last one it marked.
func (op Op) Adv() int { return int(op.adv) }

// Sel selects parts of a register of n parts: Count of them, the first at
// index Off and each next Stride places on, counted around the register
// (indices are taken modulo n), so a rotation or a reversal is one
// selector.
type Sel struct{ Off, Stride, Count int }

// Index returns the register index of the i-th part s selects from a
// register of n parts.
func (s Sel) Index(i, n int) int { return ((s.Off+i*s.Stride)%n + n) % n }

// contiguous reports whether s picks the parts of one non-empty slice of
// a register of n parts, in order: [Off, Off+Count).
func (s Sel) contiguous(n int) bool {
	return s.Count == 1 || s.Count > 1 && s.Stride == 1 && s.Off+s.Count <= n
}

// RangeError says why s is out of range for a register of n parts, or
// returns nil: it is in range when 0 ≤ Count ≤ n and, unless Count is 0,
// 0 ≤ Off < n.
func (s Sel) RangeError(n int) error {
	if s.Count >= 0 && s.Count <= n && (s.Count == 0 || s.Off >= 0 && s.Off < n) {
		return nil
	}
	return fmt.Errorf("selector %+v out of range for a register of %d parts", s, n)
}

// selection is an entry of a program's selection table.
type selection struct {
	off, stride, count int32
	to                 int32 // the peer of an OpSendParts, the register of an OpTake
}

// token is an entry of a program's token table: an OpToken's message is
// tagged tag and carries no parts, or one part of bytes bytes.
type token struct{ tag, bytes int32 }

// Script is a schedule written per rank: Rank(b, r) writes the operations
// rank r executes, in order, to b. It must write the same operations every
// time it is asked.
type Script struct {
	// Regs is the number of registers a rank needs, at least one; with
	// more than one the rank's result is their concatenation in register
	// order.
	Regs int
	Rank func(b *Builder, rank int)
	// Done, if set, gives back the storage Rank reads: Compile releases it
	// once it has written every rank, Run once its rank has run. A script
	// with a Done is compiled or run once.
	Done Releaser
}

// Releaser gives back storage for reuse (Script.Done).
type Releaser interface{ Release() }

// Program is a Script compiled for a machine of p ranks: every rank's
// operations, in one slab, and the tables they index.
type Program struct {
	regs   int
	parts  bool // some operation selects or folds parts
	phases []string
	tokens []token
	sels   []selection
	ops    []Op
	off    []int32 // rank r's operations are ops[off[r]:off[r+1]]
	// Where phases starts out: few programs name more than two.
	fewPhases [2]string
	facts     atomic.Pointer[Facts] // set by the first Facts call
}

// P returns the number of ranks the program was compiled for, -1 once it
// is released.
func (pg *Program) P() int { return len(pg.off) - 1 }

// Regs returns the number of registers per rank.
func (pg *Program) Regs() int { return pg.regs }

// Ops returns rank's operations.
func (pg *Program) Ops(rank int) []Op { return pg.ops[pg.off[rank]:pg.off[rank+1]] }

// Phase returns the name an OpPhase with the given Arg begins.
func (pg *Program) Phase(arg int) string { return pg.phases[arg] }

// Token returns the tag and size of an OpToken's message: no parts when
// bytes is 0, one part of bytes bytes otherwise.
func (pg *Program) Token(op Op) (tag, bytes int) {
	t := pg.tokens[op.reg]
	return int(t.tag), int(t.bytes)
}

// Selection returns what an OpSendParts or OpTake reads: its selector and
// the peer it sends to or the register it takes to.
func (pg *Program) Selection(op Op) (Sel, int) {
	e := pg.sels[op.arg]
	return Sel{int(e.off), int(e.stride), int(e.count)}, int(e.to)
}

// SelectsParts reports whether the program reads its bundles part by
// part — it selects or folds — so that a bundle's length and part count
// are not all there is to know of it.
func (pg *Program) SelectsParts() bool { return pg.parts }

// Builder is what a Script writes to. It counts the operations, records
// them into a Program, or performs them at once on a communicator — the
// script cannot tell which.
type Builder struct {
	n, nsel int      // counting: operations and selections so far
	pg      *Program // recording
	rank    int      // recording: the rank being written
	err     error    // recording: the first ill-formed operation
	x       executor // performing, when x.c is set
	phase   string   // the phase the writing rank is in
	// Compiling: the writing rank's last iteration marked, and how many of
	// its marks the next operation carries (Op.Adv).
	iter int
	adv  uint8

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
		if op.Kind != OpToken && op.Kind != OpIter && op.Kind != OpPhase && op.Kind != OpBarrier && uint(op.reg) >= uint(b.pg.regs) {
			b.fail(fmt.Errorf("comm: rank %d uses register %d of %d", b.rank, op.reg, b.pg.regs))
		}
		b.pg.parts = b.pg.parts || op.Kind == OpFold || op.Kind == OpSendParts || op.Kind == OpTake
		op.adv, b.adv = b.adv, 0
		b.pg.ops = append(b.pg.ops, op)
	default:
		b.adv = 0
		b.n++
	}
}

// fail records the first ill-formed operation of a compile.
func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// peer maps a rank of the subgroup between Sub and Top to the machine's;
// -1, nobody, stays.
func (b *Builder) peer(r int) int {
	if b.members != nil && r >= 0 {
		return b.members[r]
	}
	return r
}

// on is an operation of the given kind on register reg with peer, a rank
// of the subgroup between Sub and Top.
func (b *Builder) on(kind OpKind, peer, reg int) Op {
	return Op{Kind: kind, reg: int16(reg), arg: int32(b.peer(peer))}
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

// Drop receives from peer and discards the message.
func (b *Builder) Drop(peer int) { b.emit(b.on(OpDrop, peer, 0)) }

// Fold receives from peer, charges combining the received bytes and
// folds register reg and the message into one ReducedOrigin part. With
// peer -1 nothing is received: the register folds on its own.
func (b *Builder) Fold(peer, reg int) { b.emit(b.on(OpFold, peer, reg)) }

// Combine charges combining the bytes register reg holds.
func (b *Builder) Combine(reg int) { b.emit(Op{Kind: OpCombine, reg: int16(reg)}) }

// Grow gives register reg an array of its own with room for n parts, the
// bundle's final size (see OpGrow).
func (b *Builder) Grow(reg, n int) { b.emit(Op{Kind: OpGrow, reg: int16(reg), arg: int32(n)}) }

// SendParts sends peer the parts of register reg that s selects.
func (b *Builder) SendParts(peer, reg int, s Sel) {
	if b.x.c != nil {
		b.x.send(b.peer(peer), b.x.pick(reg, s))
		return
	}
	b.selection(OpSendParts, reg, s, b.peer(peer))
}

// Take appends the parts of register reg that s selects, in selection
// order, to register dst and drops the rest of reg. With dst = reg the
// register keeps only the selection.
func (b *Builder) Take(dst, reg int, s Sel) {
	if b.x.c != nil {
		b.x.take(dst, reg, s)
		return
	}
	if b.pg != nil && uint(dst) >= uint(b.pg.regs) {
		b.fail(fmt.Errorf("comm: rank %d takes into register %d of %d", b.rank, dst, b.pg.regs))
	}
	b.selection(OpTake, reg, s, dst)
}

// selection records an operation whose selector goes to the table.
func (b *Builder) selection(kind OpKind, reg int, s Sel, to int) {
	b.nsel++
	if b.pg != nil {
		b.pg.sels = append(b.pg.sels, selection{int32(s.Off), int32(s.Stride), int32(s.Count), int32(to)})
	}
	b.emit(Op{Kind: kind, reg: int16(reg), arg: int32(b.nsel - 1)})
}

// Token sends peer a message that is no register's, tagged tag: empty, or
// one part of bytes bytes that carries nothing the program reads.
func (b *Builder) Token(peer, tag, bytes int) {
	peer = b.peer(peer)
	if b.x.c != nil {
		b.x.token(peer, tag, bytes)
		return
	}
	i := 0
	if b.pg != nil {
		i = entry(&b.pg.tokens, token{int32(tag), int32(bytes)})
	}
	b.emit(Op{Kind: OpToken, reg: int16(i), arg: int32(peer)})
}

// Iter begins iteration i. Compiling, the iteration after the last one
// marked rides on the next operation (Op.Adv); any other is an OpIter.
func (b *Builder) Iter(i int) {
	if b.x.c == nil && i == b.iter+1 && b.adv < math.MaxUint8 {
		b.iter, b.adv = i, b.adv+1
		return
	}
	b.iter = i
	b.emit(Op{Kind: OpIter, arg: int32(i)})
}

// endRank writes the marks no operation of the rank carried as one OpIter.
func (b *Builder) endRank() {
	if b.adv > 0 {
		b.adv--
		b.emit(Op{Kind: OpIter, arg: int32(b.iter)})
	}
	b.phase, b.iter = "", -1
}

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
		i = entry(&b.pg.phases, name)
	}
	b.emit(Op{Kind: OpPhase, arg: int32(i)})
}

// entry returns the index of v in the table, which it joins if it is new.
func entry[T comparable](table *[]T, v T) int {
	if i := slices.Index(*table, v); i >= 0 {
		return i
	}
	*table = append(*table, v)
	return len(*table) - 1
}

// Barrier enters the barrier: the machine's, or between Sub and Top the
// subgroup's dissemination barrier (the machine's would involve ranks
// outside the group): in ⌈log2 n⌉ rounds each member sends an empty
// message tagged -1 to the member 2^j places ahead and receives from the
// one 2^j places behind, deadlock-free under the engines' buffered sends.
func (b *Builder) Barrier() {
	if b.members == nil {
		b.emit(Op{Kind: OpBarrier})
		return
	}
	for k, n := 1, len(b.members); k < n; k <<= 1 {
		b.Token((b.local+k)%n, -1, 0)
		b.Drop((b.local - k + n) % n)
	}
}

// Sub narrows the builder to a subgroup of the machine, the
// MPI_Comm_split analogue the partitioning algorithms (Part_*) need to
// broadcast inside each machine half: until Top, ranks are indices into
// members (sorted global ranks) and Barrier synchronises the members only.
// local is the writing rank's index.
func (b *Builder) Sub(members []int, local int) { b.members, b.local = members, local }

// Top ends a Sub.
func (b *Builder) Top() { b.members = nil }

// Compile writes the script for every rank of a machine of p and then
// releases it (Done). The script runs twice, once to size the slab and
// once to fill it. A script that uses a register it does not have is
// refused.
func (s Script) Compile(p int) (*Program, error) {
	if s.Done != nil {
		defer s.Done.Release()
	}
	if s.Regs > math.MaxInt16 {
		return nil, fmt.Errorf("comm: a script with %d registers", s.Regs)
	}
	b := Builder{iter: -1}
	for r := 0; r < p; r++ {
		s.Rank(&b, r)
		b.endRank()
	}
	ops, _ := slabs.Get()
	if cap(ops) < b.n {
		ops = make([]Op, 0, b.n) // a smaller slab is left to the collector
	}
	pg := &Program{regs: max(s.Regs, 1), ops: ops, off: make([]int32, p+1)}
	if b.nsel > 0 {
		pg.sels = make([]selection, 0, b.nsel)
	}
	pg.phases = pg.fewPhases[:0]
	b.pg, b.nsel = pg, 0
	for r := 0; r < p; r++ {
		b.rank = r
		s.Rank(&b, r)
		b.endRank()
		pg.off[r+1] = int32(len(pg.ops))
	}
	if b.err != nil {
		return nil, b.err
	}
	return pg, nil
}

// slabs holds the operation slabs of released programs for the next
// Compile.
var slabs par.FreeList[[]Op]

// Release gives the program's operation slab to the next Compile. Only
// the caller that compiled the program may release it, once nothing reads
// it any more; the program of a bound algorithm, which every run of it
// shares, is never released. A released program has no ranks: a replay
// of it fails, Run and Ops panic.
func (pg *Program) Release() {
	if pg.ops != nil {
		slabs.Put(pg.ops[:0])
	}
	pg.ops, pg.off = nil, nil
}

// Run executes the calling rank's part of the script on c without
// compiling anything, and then releases the script (Done): the operations
// are performed as the script writes them. mine is the rank's initial
// bundle; the result is its final one.
func (s Script) Run(c Comm, mine Message) Message {
	if s.Done != nil {
		defer s.Done.Release()
	}
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
	x := newExecutor(c, pg.regs, mine, pg)
	for _, op := range pg.Ops(c.Rank()) {
		x.do(op)
	}
	return x.result()
}

// executor performs operations on a communicator. The simulator's replay
// (sim.Replay) is the other reader of an Op; it tracks lengths where this
// moves bundles.
type executor struct {
	c      Comm
	share  SharedSender // c, when the engine can skip its send copy
	arrays ArraySource  // c, when the engine gives its ranks run-scoped part storage
	// Register 0, and the others if there are any: the common one-register
	// program costs its ranks no register file.
	r0   Message
	more []Message
	tag  int      // of the bundle the rank entered with
	pg   *Program // the tables, when executing a program
	iter int      // the last iteration marked
}

func newExecutor(c Comm, regs int, mine Message, pg *Program) executor {
	x := executor{c: c, r0: mine, tag: mine.Tag, pg: pg, iter: -1}
	x.share, _ = c.(SharedSender)
	x.arrays, _ = c.(ArraySource)
	if regs > 1 {
		x.more = make([]Message, regs-1)
	}
	return x
}

// reg returns register i.
func (x *executor) reg(i int) *Message {
	switch {
	case i == 0:
		return &x.r0
	case i > 0 && i <= len(x.more):
		return &x.more[i-1]
	}
	panic(fmt.Sprintf("comm: rank %d uses register %d of %d", x.c.Rank(), i, len(x.more)+1))
}

func (x *executor) do(op Op) {
	for range op.adv {
		x.iter++
		MarkIter(x.c, x.iter)
	}
	switch op.Kind {
	case OpSend:
		x.send(op.Peer(), *x.reg(op.Reg()))
	case OpMove:
		reg := x.reg(op.Reg())
		x.send(op.Peer(), *reg)
		reg.Parts = nil
	case OpToken:
		tag, bytes := x.pg.Token(op)
		x.token(op.Peer(), tag, bytes)
	case OpRecv:
		reg := x.reg(op.Reg())
		reg.Parts = x.c.Recv(op.Peer()).Parts
	case OpMerge:
		reg := x.reg(op.Reg())
		*reg = reg.Append(x.c.Recv(op.Peer()))
	case OpDrop:
		x.c.Recv(op.Peer())
	case OpFold:
		reg := x.reg(op.Reg())
		var m Message
		if op.Peer() >= 0 {
			m = x.c.Recv(op.Peer())
		}
		*reg = x.fold(reg.Tag, reg.Parts, m.Parts)
	case OpSendParts:
		s, peer := x.pg.Selection(op)
		x.send(peer, x.pick(op.Reg(), s))
	case OpTake:
		s, dst := x.pg.Selection(op)
		x.take(dst, op.Reg(), s)
	case OpCombine:
		// Only the simulator prices combining: an engine combines as it
		// merges. The register must exist all the same.
		x.reg(op.Reg())
	case OpSwap:
		reg := x.reg(op.Reg())
		x.r0, *reg = *reg, x.r0
	case OpGrow:
		reg := x.reg(op.Reg())
		*reg = x.grow(*reg, op.Arg())
	case OpBarrier:
		x.c.Barrier()
	case OpIter:
		x.iter = op.Arg()
		MarkIter(x.c, x.iter)
	case OpPhase:
		MarkPhase(x.c, x.pg.Phase(op.Arg()))
	default:
		panic(fmt.Sprintf("comm: unknown operation %d", op.Kind))
	}
}

// token sends peer a message tagged tag: empty, or one part of bytes zero
// bytes.
func (x *executor) token(peer, tag, bytes int) {
	m := Message{Tag: tag}
	if bytes > 0 {
		m.Parts = append(x.array(1), Part{Origin: x.c.Rank(), Data: make([]byte, bytes)})
	}
	x.send(peer, m)
}

// array returns an empty part array with room for n parts: from the
// engine's run-scoped storage when it offers that, from the heap
// otherwise.
func (x *executor) array(n int) []Part {
	if x.arrays != nil {
		return x.arrays.PartArray(n)
	}
	return make([]Part, 0, n)
}

// grow returns m with its parts moved to an array of its own with room
// for n parts in total (OpGrow).
func (x *executor) grow(m Message, n int) Message {
	m.Parts = append(x.array(max(n, len(m.Parts))), m.Parts...)
	return m
}

// send sends m to peer without a copy when the engine offers that: no
// operation changes a part array or byte once it is sent.
func (x *executor) send(peer int, m Message) {
	if x.share != nil {
		x.share.SendShared(peer, m)
		return
	}
	x.c.Send(peer, m)
}

// pick returns the parts s selects from register reg: a capped slice of
// the register's array when they are contiguous — an append to it cannot
// reach the parts behind it — a new array otherwise.
func (x *executor) pick(reg int, s Sel) Message {
	m := x.reg(reg)
	n := len(m.Parts)
	if err := s.RangeError(n); err != nil {
		panic(fmt.Sprintf("comm: rank %d, register %d: %v", x.c.Rank(), reg, err))
	}
	if end := s.Off + s.Count; s.contiguous(n) {
		return Message{Tag: m.Tag, Parts: m.Parts[s.Off:end:end]}
	}
	parts := x.array(s.Count)[:s.Count]
	for i := range parts {
		parts[i] = m.Parts[s.Index(i, n)]
	}
	return Message{Tag: m.Tag, Parts: parts}
}

func (x *executor) take(dst, reg int, s Sel) {
	sel := x.pick(reg, s)
	x.reg(reg).Parts = nil
	d := x.reg(dst)
	if len(d.Parts) == 0 {
		d.Parts = sel.Parts
		return
	}
	*d = d.Append(sel)
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
	out := x.grow(Message{Tag: x.tag}, n).Append(x.r0)
	for _, r := range x.more {
		out = out.Append(r)
	}
	return out
}
