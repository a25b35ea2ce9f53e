package bench

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite the golden tables under testdata from the code under test")

// TestEveryAlgorithmDeterministic runs each registered algorithm twice on
// p=64 and requires bit-identical results — elapsed time, per-processor
// stats, iteration breakdowns and network counters. The O(log p)
// scheduler must stay conservative: identical inputs, identical
// simulated execution.
func TestEveryAlgorithmDeterministic(t *testing.T) {
	m := machine.Paragon(8, 8)
	spec, err := SpecFor(m, dist.Equal(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range core.Registry() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			first, err := Measure(m, alg, spec, 2048)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Measure(m, alg, spec, 2048)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("two runs of %s differ:\n first: %+v\nsecond: %+v", alg.Name(), first, second)
			}
		})
	}
}

// TestEveryCollectiveDeterministic is the p=64 determinism gate for the
// non-broadcast registry entries: every collective's algorithms run
// twice on the 4×4×4-torus T3D and the 8×8 Paragon with per-collective
// specs, requiring bit-identical simulated results.
func TestEveryCollectiveDeterministic(t *testing.T) {
	machines := []*machine.Machine{machine.Paragon(8, 8), machine.T3D(64)}
	for _, m := range machines {
		specFor := func(coll core.Collective) (core.Spec, error) {
			switch coll {
			case core.Reduce, core.AllReduce:
				return SpecFor(m, dist.Equal(), 16)
			case core.Scatter:
				return core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: []int{0}}, nil
			default:
				return core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: core.AllRanksSources(m.P())}, nil
			}
		}
		for _, coll := range core.Collectives() {
			if coll == core.Broadcast {
				continue // covered by TestEveryAlgorithmDeterministic
			}
			spec, err := specFor(coll)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range core.RegistryFor(coll) {
				alg := alg
				t.Run(m.Name+"/"+alg.Name(), func(t *testing.T) {
					first, err := Measure(m, alg, spec, 2048)
					if err != nil {
						t.Fatal(err)
					}
					second, err := Measure(m, alg, spec, 2048)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(first, second) {
						t.Errorf("two runs of %s differ", alg.Name())
					}
				})
			}
		}
	}
}

// TestSchedulerMatchesSeedTimings pins the simulated clocks the seed's
// O(p) ready-scan scheduler produced on a spread of machines, algorithms
// and distributions. The heap scheduler orders runnable processors by
// (clock, rank) — exactly the scan's tie-break — so every timing must
// reproduce to the nanosecond. A drift here means the rewrite changed
// simulated semantics, not just speed.
func TestSchedulerMatchesSeedTimings(t *testing.T) {
	fixtures := []struct {
		m          *machine.Machine
		alg, dist  string
		s, msgLen  int
		elapsed    int64 // Result.Elapsed in ns
		sumFinish  int64 // sum over procs of Finish
		sumWaiting int64 // sum over procs of WaitTime
	}{
		{machine.Paragon(8, 8), "Br_Lin", "E", 16, 2048, 2793494, 165112368, 70780080},
		{machine.Paragon(10, 10), "Br_xy_source", "Cr", 30, 4096, 9575679, 794242490, 346348650},
		{machine.Paragon(16, 16), "PersAlltoAll", "Dr", 64, 1024, 12103603, 3071733438, 1894555838},
		{machine.T3D(128), "RD_AllGather", "E", 32, 4096, 6630102, 691213132, 179265100},
		{machine.T3D(64), "2-Step", "Sq", 16, 8192, 11553829, 564874824, 498466744},
		{machine.Paragon(16, 16), "Repos_xy_source", "Sq", 75, 6144, 21648828, 5270015707, 1086882379},
	}
	dists := map[string]dist.Distribution{
		"E":  dist.Equal(),
		"Cr": dist.Cross(),
		"Dr": dist.DiagRight(),
		"Sq": dist.Square(),
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.m.Name+"/"+fx.alg+"/"+fx.dist, func(t *testing.T) {
			alg, err := core.ByName(fx.alg)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := SpecFor(fx.m, dists[fx.dist], fx.s)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Measure(fx.m, alg, spec, fx.msgLen)
			if err != nil {
				t.Fatal(err)
			}
			var sumFinish, sumWait int64
			for _, pr := range res.Procs {
				sumFinish += int64(pr.Finish)
				sumWait += int64(pr.WaitTime)
			}
			if int64(res.Elapsed) != fx.elapsed {
				t.Errorf("Elapsed = %d ns, seed scheduler produced %d", int64(res.Elapsed), fx.elapsed)
			}
			if sumFinish != fx.sumFinish {
				t.Errorf("sum(Finish) = %d, seed scheduler produced %d", sumFinish, fx.sumFinish)
			}
			if sumWait != fx.sumWaiting {
				t.Errorf("sum(WaitTime) = %d, seed scheduler produced %d", sumWait, fx.sumWaiting)
			}
		})
	}
	t.Run("golden", testSeedTimingsGolden)
}

const seedTimingsGolden = "testdata/seed_timings.golden"

// rankHasher folds every traced event into a running FNV-1a hash of the
// rank it happened on, so the digest pins each rank's event order and
// every field of every event while leaving the global emission order
// free (the scheduler may interleave ranks differently; what one rank
// observes may not change).
type rankHasher struct {
	h   []uint64
	buf []byte
}

func (r *rankHasher) Trace(e obs.Event) {
	b := append(r.buf[:0], e.Kind...)
	for _, v := range [...]int64{int64(e.Rank), int64(e.Peer), int64(e.Bytes), int64(e.Parts), int64(e.Tag),
		int64(e.Seq), int64(e.Clock), int64(e.Arrival), e.Wall, int64(e.Dur), int64(e.Iter)} {
		b = binary.AppendVarint(b, v)
	}
	b = append(append(append(b, e.Phase...), 0), e.Fault...)
	h := r.h[e.Rank]
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	r.h[e.Rank], r.buf = h, b
}

// sum folds the per-rank hashes in rank order.
func (r *rankHasher) sum() uint64 {
	h := uint64(14695981039346656037)
	for _, rh := range r.h {
		for i := 0; i < 64; i += 8 {
			h = (h ^ (rh >> i & 0xff)) * 1099511628211
		}
	}
	return h
}

// seedTimingsCell is one point of the widened exactness grid.
type seedTimingsCell struct {
	key    string
	m      *machine.Machine
	alg    core.Algorithm
	spec   core.Spec
	msgLen int
}

// seedTimingsGrid enumerates every registry entry of every collective on
// four machines (a 1×13 line included, where the distribution accepts
// one) × {E, Cr, Sq} × s ∈ {1, ≈p/8, ≈p/2} × L ∈ {64, 4096}; the
// source axes collapse for collectives that take no sources or one.
func seedTimingsGrid() []seedTimingsCell {
	var cells []seedTimingsCell
	dists := []dist.Distribution{dist.Equal(), dist.Cross(), dist.Square()}
	for _, m := range []*machine.Machine{machine.Paragon(10, 10), machine.Paragon(7, 9), machine.T3D(64), machine.Paragon(1, 13)} {
		p := m.P()
		for _, coll := range core.Collectives() {
			caps := coll.Caps()
			type srcs struct {
				label   string
				sources []int
			}
			var specs []srcs
			switch {
			case !caps.TakesSources:
				specs = []srcs{{"all", core.AllRanksSources(p)}}
			default:
				svals := []int{1, max(1, p/8), p / 2}
				if caps.SingleSource {
					svals = svals[:1]
				}
				for _, d := range dists {
					for i, s := range svals {
						if i > 0 && s == svals[i-1] {
							continue
						}
						sources, err := d.Sources(m.Rows, m.Cols, s)
						if err != nil {
							continue // the distribution does not fit this mesh
						}
						specs = append(specs, srcs{fmt.Sprintf("%s(%d)", d.Name(), s), sources})
					}
				}
			}
			for _, alg := range core.RegistryFor(coll) {
				for _, sp := range specs {
					for _, l := range []int{64, 4096} {
						spec := core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: sp.sources, Indexing: topology.SnakeRowMajor}
						cells = append(cells, seedTimingsCell{
							key: fmt.Sprintf("%s/%s/%s/L%d", m.Name, alg.Name(), sp.label, l),
							m:   m, alg: alg, spec: spec, msgLen: l,
						})
					}
				}
			}
		}
	}
	return cells
}

// testSeedTimingsGolden widens the six pinned rows above to the whole
// registry: the golden table was generated by the scheduler that
// yielded after every Send and Recv and by algorithm bodies that each
// replayed the halving evolution per rank, so any engine or schedule
// rewrite must reproduce every clock, wait, combine charge, link
// statistic and per-rank event stream of it exactly. Regenerate with
// -update only when simulated semantics change on purpose.
func testSeedTimingsGolden(t *testing.T) {
	cells := seedTimingsGrid()
	lines := make([]string, len(cells))
	if err := par.ForEach(len(cells), func(i int) error {
		c := cells[i]
		tr := &rankHasher{h: make([]uint64, c.m.P())}
		res, _, err := c.m.RunSim(c.alg, c.spec, machine.Uniform(c.msgLen), sim.Options{Tracer: tr})
		if err != nil {
			lines[i] = fmt.Sprintf("%s error %v", c.key, err)
			return nil
		}
		var finish, wait, combine int64
		waits := 0
		for _, pr := range res.Procs {
			finish += int64(pr.Finish)
			wait += int64(pr.WaitTime)
			waits += pr.WaitCount
			combine += int64(pr.CombineTime)
		}
		lines[i] = fmt.Sprintf("%s elapsed=%d finish=%d wait=%d waits=%d combine=%d blocked=%d linkbusy=%d iters=%d events=%016x",
			c.key, int64(res.Elapsed), finish, wait, waits, combine, int64(res.Net.BlockedTime), int64(res.Net.LinkBusy), metrics.StaticOf(res.Program).Iterations, tr.sum())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(seedTimingsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(seedTimingsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("grid has %d cells, golden table has %d rows", len(lines), len(want))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("row %d differs:\n got %s\nwant %s", i, lines[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more differing rows", bad-10)
	}
}

const nonUniformGolden = "testdata/nonuniform.golden"

// TestNonUniformLengthsMatchGolden pins the schedules whose messages are
// selections of a bundle or folds of one — the circulant broadcast, the
// scatters, the all-to-alls, the reductions — and the discovery prelude
// on instances where every rank's message has its own length, 64 + 37·rank
// bytes (per chunk for the chunked collectives). A selection's byte count
// then depends on which parts it takes and a fold's on the longest part,
// so a run that tracked only a bundle's total length and part count would
// drift here while every uniform-length golden stayed green. Each row
// holds the clocks, waits, iterations and per-rank event digest of one
// instance; regenerate with -update only when simulated semantics change
// on purpose.
func TestNonUniformLengthsMatchGolden(t *testing.T) {
	algs := []core.Algorithm{core.BcastCirculant(), core.WithDiscovery(core.BrLin()), core.WithDiscovery(core.BrXYSource())}
	for _, name := range []string{"Scatter_Binomial", "Scatter_Direct", "A2A_Pairwise", "A2A_JungSakho", "Red_Tree", "AllRed_RecDouble", "AllRed_RedBcast"} {
		alg, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, alg)
	}
	msgLen := func(rank int) int { return 64 + 37*rank }
	var lines []string
	for _, m := range []*machine.Machine{machine.Paragon(4, 4), machine.Paragon(7, 9), machine.T3D(64)} {
		for _, alg := range algs {
			caps := core.CollectiveOf(alg).Caps()
			for i, d := range []dist.Distribution{dist.Equal(), dist.Cross()} {
				s := max(1, m.P()/4)
				switch {
				case !caps.TakesSources:
					if i > 0 {
						continue
					}
					s = m.P()
				case caps.SingleSource:
					s = 1
				}
				spec, err := SpecFor(m, d, s)
				if err != nil {
					t.Fatal(err)
				}
				tr := &rankHasher{h: make([]uint64, m.P())}
				res, _, err := m.RunSim(alg, spec, msgLen, sim.Options{Tracer: tr})
				key := fmt.Sprintf("%s/%s/%s(%d)", m.Name, alg.Name(), d.Name(), s)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				var finish, wait, combine int64
				for _, pr := range res.Procs {
					finish += int64(pr.Finish)
					wait += int64(pr.WaitTime)
					combine += int64(pr.CombineTime)
				}
				lines = append(lines, fmt.Sprintf("%s elapsed=%d finish=%d wait=%d combine=%d linkbusy=%d iters=%d events=%016x",
					key, int64(res.Elapsed), finish, wait, combine, int64(res.Net.LinkBusy), metrics.StaticOf(res.Program).Iterations, tr.sum()))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(nonUniformGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(nonUniformGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d instances, golden table has %d rows", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("row %d differs:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}

// TestSerialAndParallelHarnessIdentical runs the same experiment grid
// with the worker pool pinned to 1 and to 4 and requires byte-identical
// formatted output — the parallel harness's core guarantee.
func TestSerialAndParallelHarnessIdentical(t *testing.T) {
	render := func(limit int) string {
		prev := par.SetLimit(limit)
		defer par.SetLimit(prev)
		e, err := ByID("ablation-indexing")
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s.Format()
	}
	serial := render(1)
	parallel4 := render(4)
	if serial != parallel4 {
		t.Errorf("parallel output differs from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel4)
	}
}

// TestRunAllocationBudget is the count gate behind "a simulated run pays
// for its messages, not for its processors": one Measure, a replayed
// program, allocates at most 96 objects on the 16×16 Paragon — the
// network, the bound schedule and its program, the result — whatever p
// and s are.
func TestRunAllocationBudget(t *testing.T) {
	// The least of several runs: the first run on an engine, or the first
	// of its size or iteration count, grows the engine on top and says
	// nothing about the steady state.
	allocs := func(m *machine.Machine, alg core.Algorithm, s int) float64 {
		spec, err := SpecFor(m, dist.Equal(), s)
		if err != nil {
			t.Fatal(err)
		}
		least := math.Inf(1)
		for i := 0; i < 8; i++ {
			least = min(least, testing.AllocsPerRun(1, func() {
				if _, err := Measure(m, alg, spec, 1024); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	small, large := machine.Paragon(8, 8), machine.Paragon(16, 16)
	for _, name := range []string{"Br_Lin", "Br_xy_source", "Repos_xy_source", "2-Step", "PersAlltoAll"} {
		alg, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		at64, at128, on8x8 := allocs(large, alg, 64), allocs(large, alg, 128), allocs(small, alg, 32)
		t.Logf("%s: %.0f allocations per run on 16×16 at s=64, %.0f at s=128, %.0f on 8×8 at s=32", name, at64, at128, on8x8)
		if at64 > 96 {
			t.Errorf("%s: %.0f allocations per run, budget 96", name, at64)
		}
		// The slack is for what grows with log p or log s: a slice appended
		// to level by level, the ideal-position search.
		if at128 > at64+8 || at64 > on8x8+8 {
			t.Errorf("%s: allocations grow with the instance: %.0f on 8×8 at s=32, %.0f on 16×16 at s=64, %.0f at s=128", name, on8x8, at64, at128)
		}
	}
}

// figurePassAllocBudget leaves 5 % over the 7 511 allocations a pass
// costs (7 630 under the race detector).
const figurePassAllocBudget = 7887

// TestFigurePassAllocationBudget counts what one pass over the
// benchmark's sim_figures workload allocates — fig3, fig6, fig9 and
// fig13a regenerated on the simulator, every point a replayed program.
// The points run on one worker, so the count repeats to within a few
// allocations: AllocsPerRun pins GOMAXPROCS, and with it the simulator's
// engine free list, to 1, and a second worker's engine would be dropped
// and re-made on every point. The least of two passes, so a collection
// during one does not count.
func TestFigurePassAllocationBudget(t *testing.T) {
	defer par.SetLimit(par.SetLimit(1))
	var exps []Experiment
	for _, id := range []string{"fig3", "fig6", "fig9", "fig13a"} {
		ex, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, ex)
	}
	pass := func() {
		for _, ex := range exps {
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	least := math.Inf(1)
	for range 2 {
		least = min(least, testing.AllocsPerRun(1, pass))
	}
	t.Logf("%.0f allocations per figure pass", least)
	if least > figurePassAllocBudget {
		t.Errorf("%.0f allocations per figure pass, budget %d", least, figurePassAllocBudget)
	}
}
