package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/sim"
	"repro/internal/topology"
)

// liveRun opens a live machine of p processors, runs fn on it once and
// closes it. A receive or barrier that waits 10 s, unless opts bounds it
// otherwise, fails the run: a schedule whose sends and receives do not
// match ends in an error, not in a hang.
func liveRun(p int, opts live.Options, fn func(*live.Proc)) (engine.Result, error) {
	if opts.RecvTimeout == 0 {
		opts.RecvTimeout = 10 * time.Second
	}
	m, err := live.NewMachine(p)
	if err != nil {
		return engine.Result{}, err
	}
	defer m.Close()
	return m.Run(opts, fn)
}

// makeSpec builds a spec from a distribution, failing the test on error.
func makeSpec(t *testing.T, d dist.Distribution, r, c, s int) Spec {
	t.Helper()
	sources, err := d.Sources(r, c, s)
	if err != nil {
		t.Fatalf("%s(%d) on %d×%d: %v", d.Name(), s, r, c, err)
	}
	return Spec{Rows: r, Cols: c, Sources: sources, Indexing: topology.SnakeRowMajor}
}

// checkOut asserts coll's postcondition (Collective.Check) on every
// rank's bundle of a run whose ranks entered with Payload of size bytes.
func checkOut(t *testing.T, label string, coll Collective, spec Spec, out []comm.Message, size int) {
	t.Helper()
	for rank, m := range out {
		if err := coll.Check(spec, func(int) int { return size }, rank, m); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

// runSim replays the program a broadcast algorithm compiles for spec on
// the Paragon NX model, every source entering with size bytes.
func runSim(t *testing.T, alg Algorithm, spec Spec, size int) *sim.Result {
	t.Helper()
	res, err := replayColl(Broadcast, alg, spec, size)
	if err != nil {
		t.Fatalf("%s on %d×%d s=%d: %v", alg.Name(), spec.Rows, spec.Cols, spec.S(), err)
	}
	return res
}

// staticOf is the static profile (comm.Program.Facts) of the program alg
// compiles for spec: what each rank does in each iteration, with no run.
func staticOf(t *testing.T, alg Algorithm, spec Spec) *comm.Facts {
	t.Helper()
	prog := ProgramOf(Bind(alg, spec))
	if prog == nil {
		t.Fatalf("%s on %d×%d %v: no program", alg.Name(), spec.Rows, spec.Cols, spec.Sources)
	}
	return prog.Facts()
}

// runLive executes a broadcast algorithm on the live engine.
func runLive(t *testing.T, alg Algorithm, spec Spec, size int) []comm.Message {
	t.Helper()
	return runLiveColl(t, Broadcast, alg, spec, size)
}

// TestAlgorithmsLiveEngine is the broad correctness matrix, on the live
// runtime with real bytes: every algorithm × every named distribution ×
// several machine shapes and source counts.
func TestAlgorithmsLiveEngine(t *testing.T) {
	meshes := [][2]int{{1, 8}, {4, 4}, {3, 5}, {5, 5}, {4, 7}}
	for _, alg := range Registry() {
		for _, m := range meshes {
			r, c := m[0], m[1]
			p := r * c
			for _, s := range []int{1, 2, p / 2, p - 1, p} {
				for _, d := range dist.All() {
					spec := makeSpec(t, d, r, c, s)
					label := fmt.Sprintf("%s/%s(%d)/%dx%d live", alg.Name(), d.Name(), s, r, c)
					out := runLive(t, alg, spec, 16)
					checkOut(t, label, Broadcast, spec, out, 16)
				}
			}
		}
	}
}

// TestSingleProcessorMachine covers the degenerate p=1 machine.
func TestSingleProcessorMachine(t *testing.T) {
	spec := Spec{Rows: 1, Cols: 1, Sources: []int{0}, Indexing: topology.SnakeRowMajor}
	for _, alg := range Registry() {
		out := runLive(t, alg, spec, 8)
		checkOut(t, alg.Name()+" p=1", Broadcast, spec, out, 8)
	}
}

// TestQuickRandomInstances is the property test: random machine shape,
// random source set, random algorithm — the postcondition must hold.
func TestQuickRandomInstances(t *testing.T) {
	algs := Registry()
	f := func(ru, cu, su, au uint8, seed int64) bool {
		r := int(ru)%6 + 1
		c := int(cu)%6 + 1
		p := r * c
		s := int(su)%p + 1
		alg := algs[int(au)%len(algs)]
		sources, err := dist.Random(seed).Sources(r, c, s)
		if err != nil {
			return false
		}
		spec := Spec{Rows: r, Cols: c, Sources: sources, Indexing: topology.SnakeRowMajor}
		out := make([]comm.Message, p)
		if _, err := liveRun(p, live.Options{}, func(pr *live.Proc) {
			mine := InitialFor(Broadcast, spec, pr.Rank(), func(r int) []byte { return Broadcast.Payload(p, r, 8) })
			out[pr.Rank()] = alg.Run(pr, spec, mine)
		}); err != nil {
			t.Logf("%s on %d×%d s=%d sources=%v: %v", alg.Name(), r, c, s, sources, err)
			return false
		}
		for rank, m := range out {
			if err := Broadcast.Check(spec, func(int) int { return 8 }, rank, m); err != nil {
				t.Logf("%s on %d×%d sources=%v: %v", alg.Name(), r, c, sources, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidate(t *testing.T) {
	ok := Spec{Rows: 2, Cols: 3, Sources: []int{0, 5}}
	if err := ok.Validate(6); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Rows: 0, Cols: 3, Sources: []int{0}},
		{Rows: 2, Cols: 3, Sources: nil},
		{Rows: 2, Cols: 3, Sources: []int{5, 0}},
		{Rows: 2, Cols: 3, Sources: []int{0, 0}},
		{Rows: 2, Cols: 3, Sources: []int{6}},
	}
	for i, spec := range bad {
		if err := spec.Validate(6); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if err := ok.Validate(8); err == nil {
		t.Error("machine-size mismatch accepted")
	}
}

func TestSpecSourceLookup(t *testing.T) {
	spec := Spec{Rows: 2, Cols: 4, Sources: []int{1, 3, 6}}
	for _, src := range spec.Sources {
		if !spec.IsSource(src) {
			t.Errorf("IsSource(%d) = false", src)
		}
	}
	if spec.IsSource(0) || spec.IsSource(7) {
		t.Error("non-source reported as source")
	}
	if got := spec.SourceIndex(3); got != 1 {
		t.Errorf("SourceIndex(3) = %d", got)
	}
	if got := spec.SourceIndex(2); got != -1 {
		t.Errorf("SourceIndex(2) = %d", got)
	}
}

func TestMaxPerLine(t *testing.T) {
	// Two full columns on a 4×4 mesh: every row has 2 sources, the two
	// columns have 4 each.
	spec := makeSpec(t, dist.Column(), 4, 4, 8)
	maxR, maxC := maxPerLine(spec)
	if maxR != 2 || maxC != 4 {
		t.Fatalf("maxPerLine = (%d,%d), want (2,4)", maxR, maxC)
	}
}

func TestLineIters(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 100: 7, 128: 7}
	for n, want := range cases {
		if got := lineIters(1, n); got != want {
			t.Errorf("lineIters(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSplitMachine(t *testing.T) {
	spec := Spec{Rows: 4, Cols: 6, Sources: []int{0, 1, 2, 3, 4, 5}}
	g1, g2 := splitMachine(spec)
	if g1.rows != 4 || g1.cols != 3 || g2.rows != 4 || g2.cols != 3 {
		t.Fatalf("split dims: %+v %+v", g1, g2)
	}
	if g1.size()+g2.size() != 24 {
		t.Fatalf("split sizes: %d + %d", g1.size(), g2.size())
	}
	if g1.sources+g2.sources != 6 || g1.sources != 3 {
		t.Fatalf("split sources: %d + %d", g1.sources, g2.sources)
	}
	// Membership: G1 is the left half.
	for _, m := range g1.members {
		if m%6 >= 3 {
			t.Fatalf("rank %d in left half", m)
		}
	}
	// Tall machine splits rows.
	tall := Spec{Rows: 6, Cols: 2, Sources: []int{0, 1}}
	t1, t2 := splitMachine(tall)
	if t1.rows != 3 || t1.cols != 2 || t2.rows != 3 {
		t.Fatalf("tall split: %+v %+v", t1, t2)
	}
	// Odd dimension: halves differ by one column.
	odd := Spec{Rows: 3, Cols: 5, Sources: []int{0, 1, 2}}
	o1, o2 := splitMachine(odd)
	if o1.cols != 2 || o2.cols != 3 {
		t.Fatalf("odd split: %+v %+v", o1, o2)
	}
	if o1.sources < 1 || o2.sources < 1 {
		t.Fatalf("odd split starves a half: %d/%d", o1.sources, o2.sources)
	}
}

func TestSplitMachineSingleSource(t *testing.T) {
	spec := Spec{Rows: 2, Cols: 4, Sources: []int{5}}
	g1, g2 := splitMachine(spec)
	if g1.sources+g2.sources != 1 {
		t.Fatalf("single source split: %d/%d", g1.sources, g2.sources)
	}
}

func TestRepositionPermutationOrder(t *testing.T) {
	spec := Spec{Rows: 2, Cols: 4, Sources: []int{2, 5, 7}}
	targets := repositionPermutation(spec, []int{6, 0, 3})
	want := []int{0, 3, 6}
	if !reflect.DeepEqual(targets, want) {
		t.Fatalf("targets = %v, want %v", targets, want)
	}
}

func TestInvalidSpecPanicsSurface(t *testing.T) {
	spec := Spec{Rows: 2, Cols: 2, Sources: []int{9}} // out of range
	_, err := liveRun(4, live.Options{}, func(pr *live.Proc) {
		BrLin().Run(pr, spec, comm.Message{})
	})
	if err == nil {
		t.Fatal("invalid spec did not fail the run")
	}
	if _, err := Compile(BrLin(), spec); err == nil || !strings.Contains(err.Error(), "source 9 outside machine") {
		t.Fatalf("invalid spec compiled: %v", err)
	}
}

// TestBrLinActiveGrowthIdealVsPartnered reproduces the paper's machine-size
// observation: two sources that are halving partners stall the first
// iteration, while the ideal placement doubles immediately.
func TestBrLinActiveGrowthIdealVsPartnered(t *testing.T) {
	active := func(sources []int) int {
		spec := Spec{Rows: 1, Cols: 16, Sources: sources, Indexing: topology.RowMajor}
		return staticOf(t, BrLin(), spec).Active[0]
	}
	idealPos, err := dist.IdealLinear(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a := active([]int{0, 8}); a != 2 { // halving partners on a 16-line
		t.Fatalf("partnered sources: %d active in iter 0, want 2 (no growth)", a)
	}
	if a := active(idealPos); a != 4 {
		t.Fatalf("ideal sources: %d active in iter 0, want 4", a)
	}
}

// TestReposIdealDistributionUnchanged: repositioning an already-ideal
// distribution must still deliver correctly (the permutation may be the
// identity or a shuffle among ideal slots).
func TestReposIdealDistributionUnchanged(t *testing.T) {
	spec := makeSpec(t, dist.IdealRows(), 8, 8, 16)
	out := runLive(t, ReposXYSource(), spec, 32)
	checkOut(t, "Repos on ideal", Broadcast, spec, out, 32)
}

// TestByNameRoundTrip checks the registry lookup.
func TestByNameRoundTrip(t *testing.T) {
	for _, alg := range Registry() {
		got, err := ByName(alg.Name())
		if err != nil || got.Name() != alg.Name() {
			t.Errorf("ByName(%q) = %v, %v", alg.Name(), got, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestDeterministicTiming: identical runs give identical simulated time.
func TestDeterministicTiming(t *testing.T) {
	spec := makeSpec(t, dist.DiagRight(), 5, 5, 10)
	for _, alg := range Registry() {
		a := runSim(t, alg, spec, 256)
		b := runSim(t, alg, spec, 256)
		if a.Elapsed != b.Elapsed {
			t.Errorf("%s: elapsed %d vs %d", alg.Name(), a.Elapsed, b.Elapsed)
		}
	}
}

// TestEnginesAgreeOnRandomInstances is the cross-engine property test:
// for random machines, distributions and algorithms, the simulator's
// replay of the program counts, rank by rank, the sends, receives and
// bytes sent of the live engine's run of it.
func TestEnginesAgreeOnRandomInstances(t *testing.T) {
	algs := Registry()
	f := func(ru, cu, su, au uint8, seed int64) bool {
		r := int(ru)%4 + 1
		c := int(cu)%4 + 1
		p := r * c
		s := int(su)%p + 1
		alg := algs[int(au)%len(algs)]
		sources, err := dist.Random(seed).Sources(r, c, s)
		if err != nil {
			return false
		}
		spec := Spec{Rows: r, Cols: c, Sources: sources, Indexing: topology.SnakeRowMajor}
		if err := enginesAgree(Broadcast, alg, spec, 8); err != nil {
			t.Logf("%s on %d×%d: %v", alg.Name(), r, c, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
