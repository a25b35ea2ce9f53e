package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/live"
	"repro/internal/topology"
)

// programSteps returns rank by rank the sends and receives of prog's
// sending and merging operations as the Steps they execute, each in the
// iteration last marked before it (an OpIter, or an operation's Adv).
func programSteps(prog *comm.Program) [][]Step {
	out := make([][]Step, prog.P())
	for r := range out {
		it := -1
		for _, op := range prog.Ops(r) {
			it += op.Adv()
			switch op.Kind {
			case comm.OpIter:
				it = op.Arg()
			case comm.OpSend, comm.OpMerge:
				out[r] = append(out[r], Step{int32(max(it, 0)), int32(r), int32(op.Peer()), op.Kind == comm.OpMerge})
			}
		}
	}
	return out
}

// TestStepsMatchExecutedSchedule holds what is read of a schedule and what
// is executed of it together, for every registry entry, on square, odd,
// 1×p, large and torus machines.
//
// Every entry must have a program (Bind compiles it; every engine
// executes it rank by rank and the simulator replays it), and the entries
// are listed by name, so none is skipped unnoticed.
//
// Step stream against program: for the sectioning broadcasts the steps
// Steps hands out for a rank are exactly the (level, peer, send|merge)
// sequence of that rank's operations, so what the planner prices is what
// the engines run.
func TestStepsMatchExecutedSchedule(t *testing.T) {
	machines := [][2]int{{4, 4}, {7, 9}, {1, 13}, {10, 10}, {16, 16}, {8, 8}}
	var programmed, streamed []string
	for _, m := range machines {
		for _, coll := range Collectives() {
			for _, spec := range specsFor(t, coll, m[0], m[1]) {
				for _, alg := range RegistryFor(coll) {
					prog, err := Compile(alg, spec)
					if err != nil {
						t.Fatalf("%s on %d×%d %v: %v", alg.Name(), m[0], m[1], spec.Sources, err)
					}
					if !slices.Contains(programmed, alg.Name()) {
						programmed = append(programmed, alg.Name())
					}
					if checkStream(t, alg, spec, prog) && !slices.Contains(streamed, alg.Name()) {
						streamed = append(streamed, alg.Name())
					}
				}
			}
		}
	}
	if want := []string{"2-Step", "PersAlltoAll", "Br_Lin", "Br_xy_source", "Br_xy_dim", "Repos_Lin", "Repos_xy_source", "Repos_xy_dim",
		"Part_Lin", "Part_xy_source", "Part_xy_dim", "Ring_AllGather", "RD_AllGather", "Indep_1toP", "Br_kport4",
		"Bcast_Circulant", "Red_Tree", "AllRed_RecDouble", "AllRed_RedBcast", "Scatter_Binomial", "Scatter_Direct",
		"Ag_Ring", "Ag_RecDouble", "A2A_Pairwise", "A2A_JungSakho"}; !slices.Equal(programmed, want) {
		t.Errorf("registry algorithms with a program: %v, want %v", programmed, want)
	}
	if want := []string{"Br_Lin", "Br_xy_source", "Br_xy_dim", "Br_kport4"}; !slices.Equal(streamed, want) {
		t.Errorf("registry algorithms with a step stream: %v, want %v", streamed, want)
	}
	// Values built outside the registry compile too, and Br_dims on three
	// dimensions — three passes, the holder flags carrying over from each
	// to the next — executes its stream.
	spec := makeSpec(t, dist.Cross(), 4, 4, 6)
	dims := BrDims([]int{2, 2, 4}, []int{2, 0, 1})
	if prog, err := Compile(dims, spec); err != nil {
		t.Errorf("%s: %v", dims.Name(), err)
	} else if !checkStream(t, dims, spec, prog) {
		t.Errorf("%s has no step stream", dims.Name())
	}
	for _, alg := range []Algorithm{ReposTo(BrLin(), []int{0, 3, 5, 6, 9, 15}),
		ReposAdaptive(BrXYDim(), 0.1), ReposAdaptive(BrXYDim(), 1),
		WithDiscovery(BrLin()), ReposTo(WithDiscovery(BrLin()), []int{0, 3, 5, 6, 9, 15})} {
		if _, err := Compile(alg, spec); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

// checkStream reports whether alg has a step stream on spec and, if it
// has, fails t unless each rank's steps are those its operations in prog
// execute.
func checkStream(t *testing.T, alg Algorithm, spec Spec, prog *comm.Program) bool {
	t.Helper()
	want := make([][]Step, spec.P())
	if !Steps(alg, spec, func(st Step) { want[st.Rank] = append(want[st.Rank], st) }) {
		return false
	}
	for r, got := range programSteps(prog) {
		if !slices.Equal(got, want[r]) {
			t.Fatalf("%s on %d×%d %v: rank %d executes %v, the stream says %v",
				alg.Name(), spec.Rows, spec.Cols, spec.Sources, r, got, want[r])
		}
	}
	return true
}

// TestSectionedBindBytesNearProgram holds what Bind allocates for a
// sectioning broadcast, in bytes, to at most 2.5× its program's op slab
// with every mark an operation carries (Op.Adv) counted as an OpIter of
// its own: the steps it files and the scratch of its holder evolution are
// sized by what the evolution does, not by a bound on it. The least of
// three binds, so a collection during one does not count.
func TestSectionedBindBytesNearProgram(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations count")
	}
	for _, alg := range []Algorithm{BrLin(), BrXYSource(), BrXYDim(), BrKPort(4)} {
		for _, m := range [][2]int{{7, 9}, {10, 10}, {16, 16}} {
			p := m[0] * m[1]
			for _, s := range []int{1, p / 8, p / 2} {
				t.Run(fmt.Sprintf("%s/%dx%d/E(%d)", alg.Name(), m[0], m[1], s), func(t *testing.T) {
					spec := makeSpec(t, dist.Equal(), m[0], m[1], s)
					least := uint64(math.MaxUint64)
					var prog *comm.Program
					for range 3 {
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						bound := Bind(alg, spec)
						runtime.ReadMemStats(&after)
						least = min(least, after.TotalAlloc-before.TotalAlloc)
						prog = ProgramOf(bound)
					}
					ops := 0
					for r := range p {
						for _, op := range prog.Ops(r) {
							ops += 1 + op.Adv()
						}
					}
					slab := uint64(ops) * uint64(unsafe.Sizeof(comm.Op{}))
					ratio := float64(least) / float64(slab)
					t.Logf("%d bytes, %.2f× the %d-byte op slab", least, ratio, slab)
					if ratio > 2.5 {
						t.Errorf("Bind allocates %d bytes, %.2f× its %d-byte op slab, budget 2.5×", least, ratio, slab)
					}
				})
			}
		}
	}
}

// specsFor lists the instances of a collective the schedule tests run on
// an r×c machine: {E, Cr, Sq} × s ∈ {1, p/8, p/2} where the collective
// takes sources (one source where it takes one), every rank otherwise.
func specsFor(t *testing.T, coll Collective, r, c int) []Spec {
	p := r * c
	caps := coll.Caps()
	if !caps.TakesSources {
		return []Spec{{Rows: r, Cols: c, Sources: AllRanksSources(p), Indexing: topology.SnakeRowMajor}}
	}
	svals := []int{1, max(p/8, 1), p / 2}
	if caps.SingleSource {
		svals = svals[:1]
	}
	var specs []Spec
	for _, d := range []dist.Distribution{dist.Equal(), dist.Cross(), dist.Square()} {
		for i, s := range svals {
			if i == 0 || s != svals[i-1] {
				specs = append(specs, makeSpec(t, d, r, c, s))
			}
		}
	}
	return specs
}

// TestBoundSharedByConcurrentRanks runs bound algorithms on the live
// engine, where the p ranks really execute at once: the compiled
// schedule, the reposition targets and the partition tables are shared by
// all of them, so under -race this proves they are read-only after Bind.
// Ten rounds per algorithm stand in for -count=10.
func TestBoundSharedByConcurrentRanks(t *testing.T) {
	spec := makeSpec(t, dist.Cross(), 4, 4, 6)
	for _, alg := range []Algorithm{BrXYSource(), ReposLin(), PartXYSource(), BrKPort(4), ReposAdaptive(BrXYDim(), 0.1)} {
		bound := Bind(alg, spec)
		if bound.Name() != alg.Name() || CollectiveOf(bound) != CollectiveOf(alg) {
			t.Fatalf("binding %s changed its identity: %s/%s", alg.Name(), bound.Name(), CollectiveOf(bound))
		}
		for round := 0; round < 10; round++ {
			out := runLive(t, bound, spec, 64)
			checkOut(t, bound.Name()+" (bound, live)", Broadcast, spec, out, 64)
		}
	}
}

// TestBoundRejectsForeignSpecAndSize pins the two guards a bound
// algorithm keeps from the per-processor prelude it replaces: it panics
// on a communicator of the wrong size, and it refuses to run under a
// spec it was not bound to (an equal spec in a different slice is fine).
func TestBoundRejectsForeignSpecAndSize(t *testing.T) {
	spec := makeSpec(t, dist.Equal(), 4, 4, 4)
	run := func(rows, cols int, alg Algorithm, with Spec) error {
		_, err := liveRun(rows*cols, live.Options{}, func(pr *live.Proc) {
			alg.Run(pr, with, InitialFor(Broadcast, with, pr.Rank(), func(r int) []byte { return Broadcast.Payload(with.P(), r, 8) }))
		})
		return err
	}
	for _, alg := range []Algorithm{BrLin(), BrXYSource(), ReposXYDim(), PartLin()} {
		bound := Bind(alg, spec)
		if err := run(4, 4, bound, spec); err != nil {
			t.Fatalf("%s: bound run failed: %v", alg.Name(), err)
		}
		equal := spec
		equal.Sources = append([]int(nil), spec.Sources...)
		if err := run(4, 4, bound, equal); err != nil {
			t.Errorf("%s: equal spec in another slice rejected: %v", alg.Name(), err)
		}
		foreign := makeSpec(t, dist.Equal(), 4, 4, 5)
		if err := run(4, 4, bound, foreign); err == nil || !strings.Contains(err.Error(), "bound to another spec") {
			t.Errorf("%s: foreign spec: got %v, want a bound-to-another-spec panic", alg.Name(), err)
		}
		if err := run(2, 2, bound, spec); err == nil || !strings.Contains(err.Error(), "does not cover machine of 4") {
			t.Errorf("%s: 2×2 communicator: got %v, want a wrong-size panic", alg.Name(), err)
		}
	}
	// A spec that cannot be bound fails where the prelude failed: on every
	// rank's Run, not in Bind.
	bad := Bind(BrLin(), Spec{Rows: 2, Cols: 2, Sources: []int{9}})
	if err := run(2, 2, bad, Spec{Rows: 2, Cols: 2, Sources: []int{9}}); err == nil || !strings.Contains(err.Error(), "outside machine") {
		t.Errorf("invalid spec: got %v, want the validation error from every rank", err)
	}
}

// TestInitialLenMeasuresInitialFor: what a replay is told of a rank's
// initial bundle is what the bundle a real-byte run builds measures, for
// every collective.
func TestInitialLenMeasuresInitialFor(t *testing.T) {
	for _, coll := range Collectives() {
		for _, spec := range specsFor(t, coll, 3, 4) {
			for rank := 0; rank < spec.P(); rank++ {
				m := InitialFor(coll, spec, rank, func(r int) []byte { return coll.Payload(spec.P(), r, 48) })
				partLen, parts := InitialLen(coll, spec, rank, 48)
				if parts != len(m.Parts) || partLen*parts != m.Len() {
					t.Fatalf("%s, sources %v, rank %d: InitialLen says %d parts of %d bytes, the bundle has %d bytes in %d",
						coll, spec.Sources, rank, parts, partLen, m.Len(), len(m.Parts))
				}
				for _, pt := range m.Parts {
					if pt.Len() != partLen {
						t.Fatalf("%s, sources %v, rank %d: a part of %d bytes, InitialLen says %d", coll, spec.Sources, rank, pt.Len(), partLen)
					}
				}
			}
		}
	}
}

// TestBindingsCompileEachInstanceOnce pins the memo a warm engine binds
// through: an instance — registry name plus spec by value — is compiled
// once and handed back as the identical value, anything else binds anew,
// the least recently used of bindingsCap instances makes way for a new
// one, and a spec that fails to bind fails every rank of every run.
func TestBindingsCompileEachInstanceOnce(t *testing.T) {
	var m Bindings
	spec := makeSpec(t, dist.Equal(), 4, 4, 4)
	first := m.Bind(BrLin(), spec)
	if ProgramOf(first) == nil {
		t.Fatal("Br_Lin bound through the memo has no program")
	}
	equal := spec
	equal.Sources = slices.Clone(spec.Sources)
	if m.Bind(BrLin(), equal) != first {
		t.Error("an equal spec in another slice compiled again")
	}
	spec.Sources[0] = 1 // the caller's slice is not the memo's key
	if m.Bind(BrLin(), equal) != first {
		t.Error("a write to the first caller's sources changed the memo")
	}
	rowMajor := equal
	rowMajor.Indexing = topology.RowMajor
	for label, got := range map[string]Algorithm{
		"other sources":   m.Bind(BrLin(), makeSpec(t, dist.Equal(), 4, 4, 5)),
		"other algorithm": m.Bind(BrXYSource(), equal),
		"other indexing":  m.Bind(BrLin(), rowMajor),
	} {
		if got == first || ProgramOf(got) == nil {
			t.Errorf("%s: got the memoized Br_Lin, or no program", label)
		}
	}

	// Algorithms whose name does not identify them bind anew every time.
	type foreign struct{ Algorithm }
	ext := &foreign{BrLin()}
	if got := m.Bind(ext, equal); got != ext {
		t.Errorf("an algorithm from outside core came back as %T", got)
	}
	repos := ReposTo(BrLin(), []int{0, 5, 10, 15})
	if a, b := m.Bind(repos, equal), m.Bind(repos, equal); a == b {
		t.Error("ReposTo was memoized by its name")
	}

	// Eight instances fill the memo; touching the first makes the second
	// the least recently used, which a ninth evicts.
	m = Bindings{}
	specs := make([]Spec, bindingsCap+1)
	got := make([]Algorithm, bindingsCap+1)
	for i := range specs {
		specs[i] = makeSpec(t, dist.Equal(), 4, 4, i+1)
	}
	for i := 0; i < bindingsCap; i++ {
		got[i] = m.Bind(BrLin(), specs[i])
	}
	m.Bind(BrLin(), specs[0])
	got[bindingsCap] = m.Bind(BrLin(), specs[bindingsCap])
	for _, i := range []int{0, 2, 3, 4, 5, 6, 7, 8} {
		if m.Bind(BrLin(), specs[i]) != got[i] {
			t.Errorf("instance %d was evicted", i)
		}
	}
	if m.Bind(BrLin(), specs[1]) == got[1] {
		t.Error("the least recently used instance survived a ninth")
	}

	// A failing bind is memoized, and every rank of every run re-raises
	// its error.
	bad := Spec{Rows: 2, Cols: 2, Sources: []int{9}}
	failed := m.Bind(BrLin(), bad)
	for run := 0; run < 2; run++ {
		if again := m.Bind(BrLin(), bad); again != failed {
			t.Fatal("a failing bind compiled again")
		}
		for rank := 0; rank < bad.P(); rank++ {
			if err := panicOf(func() { failed.Run(rankOnly{rank: rank, size: 4}, bad, comm.Message{}) }); !strings.Contains(err, "outside machine") {
				t.Errorf("run %d, rank %d: got %q, want the validation error", run, rank, err)
			}
		}
	}
}

// rankOnly is a communicator that only knows who it is: enough for a
// bound algorithm that fails before its first communication.
type rankOnly struct {
	comm.Comm
	rank, size int
}

func (c rankOnly) Rank() int { return c.rank }
func (c rankOnly) Size() int { return c.size }

// panicOf runs f and returns what it panicked with, as text ("" if it
// returned).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
