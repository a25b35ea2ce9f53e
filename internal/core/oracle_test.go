package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The oracles below are the independent reference for the compiled
// sectioning schedules: a second, plain reading of the paper's halving
// rule, written without the compiler, against which the static profile of
// Br_Lin's and Br_xy's programs and the simulator's send and byte totals
// must agree exactly.

// oracle is the exact replay of a halving broadcast on one instance.
type oracle struct {
	// Active is the number of processors that send or receive in each
	// iteration — what comm.Program.Facts reads off the program.
	Active []int
	// Holders is the number of message-holding processors after each
	// iteration.
	Holders []int
	// Sends is the total number of point-to-point sends.
	Sends int
	// Bytes is the total payload volume moved, every source message L
	// bytes long.
	Bytes int64
}

// replayHalving replays recursive halving on one line: holds[i] and
// size[i] describe position i's current bundle; the function mutates them
// to the final state and reports, per level, which positions were active,
// plus total sends and payload bytes. Pairs (lo+i, lo+i+h) with h=⌈n/2⌉
// exchange, or one sends when only one side holds; an odd segment's
// unpaired middle sends one way to the segment's last position.
func replayHalving(holds []bool, size []int64) (levels [][]bool, sends int, bytes int64) {
	n := len(holds)
	type seg struct{ lo, n int }
	segs := []seg{{0, n}}
	for {
		split := false
		for _, g := range segs {
			if g.n > 1 {
				split = true
			}
		}
		if !split {
			return levels, sends, bytes
		}
		active := make([]bool, n)
		var next []seg
		for _, g := range segs {
			if g.n <= 1 {
				continue
			}
			h := (g.n + 1) / 2
			for i := 0; i < g.n-h; i++ {
				a, b := g.lo+i, g.lo+i+h
				switch {
				case holds[a] && holds[b]:
					sends += 2
					bytes += size[a] + size[b]
					size[a], size[b] = size[a]+size[b], size[a]+size[b]
					active[a], active[b] = true, true
				case holds[a]:
					sends++
					bytes += size[a]
					size[b] += size[a]
					holds[b] = true
					active[a], active[b] = true, true
				case holds[b]:
					sends++
					bytes += size[b]
					size[a] += size[b]
					holds[a] = true
					active[a], active[b] = true, true
				}
			}
			if g.n%2 == 1 {
				u, tgt := g.lo+h-1, g.lo+g.n-1
				if holds[u] && u != tgt {
					sends++
					bytes += size[u]
					size[tgt] += size[u]
					holds[tgt] = true
					active[u], active[tgt] = true, true
				}
			}
			next = append(next, seg{g.lo, h}, seg{g.lo + h, g.n - h})
		}
		segs = next
		levels = append(levels, active)
	}
}

// brLinOracle replays Br_Lin on spec with every source message l bytes
// long: one halving line in the spec's indexing order.
func brLinOracle(spec Spec, l int) *oracle {
	p := spec.P()
	mesh := topology.MustMesh2D(spec.Rows, spec.Cols)
	holds := make([]bool, p)
	size := make([]int64, p) // bundle bytes at each line position
	for pos := 0; pos < p; pos++ {
		if spec.IsSource(spec.Indexing.RankToNode(mesh, pos)) {
			holds[pos] = true
			size[pos] = int64(l)
		}
	}
	holding := append([]bool(nil), holds...)
	levels, sends, bytes := replayHalving(holds, size)
	o := &oracle{Sends: sends, Bytes: bytes}
	o.tally(levels, holding)
	return o
}

// tally appends one iteration per level: how many processors were
// active, and how many hold a message from then on (holding, indexed as
// the levels are, only grows).
func (o *oracle) tally(levels [][]bool, holding []bool) {
	for _, active := range levels {
		nActive := 0
		for i, a := range active {
			if a {
				nActive++
				holding[i] = true
			}
		}
		nHold := 0
		for _, h := range holding {
			if h {
				nHold++
			}
		}
		o.Active = append(o.Active, nActive)
		o.Holders = append(o.Holders, nHold)
	}
}

// brXYOracle replays Br_xy_source (sourceRule) or Br_xy_dim on spec with
// every source message l bytes long: phase one runs the halving pattern
// inside every line of the first dimension, phase two inside every line
// of the second, where a position holds iff its phase-one line held any
// source, with that line's whole volume.
func brXYOracle(spec Spec, l int, sourceRule bool) *oracle {
	r, c, p := spec.Rows, spec.Cols, spec.P()
	perRow := make([]int, r)
	perCol := make([]int, c)
	for _, src := range spec.Sources {
		perRow[src/c]++
		perCol[src%c]++
	}
	rowsFirst := r >= c
	if sourceRule {
		rowsFirst = slices.Max(perRow) < slices.Max(perCol)
	}
	rows := make([][]int, r)
	for i := range rows {
		for j := 0; j < c; j++ {
			rows[i] = append(rows[i], i*c+j)
		}
	}
	cols := make([][]int, c)
	for j := range cols {
		for i := 0; i < r; i++ {
			cols[j] = append(cols[j], i*c+j)
		}
	}
	first, second := cols, rows
	volume := func(rank int) int { return perCol[rank%c] }
	if rowsFirst {
		first, second = rows, cols
		volume = func(rank int) int { return perRow[rank/c] }
	}

	o := &oracle{}
	holding := make([]bool, p)
	for _, src := range spec.Sources {
		holding[src] = true
	}
	// phase replays every line of one dimension in lockstep: a level of
	// the phase is a rank active in that level of any line.
	phase := func(lines [][]int, bundle func(rank int) int64) {
		var merged [][]bool // indexed by rank
		for _, line := range lines {
			holds := make([]bool, len(line))
			size := make([]int64, len(line))
			for pos, rank := range line {
				size[pos] = bundle(rank)
				holds[pos] = size[pos] > 0
			}
			levels, sends, bytes := replayHalving(holds, size)
			o.Sends += sends
			o.Bytes += bytes
			for lvl, active := range levels {
				for len(merged) <= lvl {
					merged = append(merged, make([]bool, p))
				}
				for pos, a := range active {
					merged[lvl][line[pos]] = merged[lvl][line[pos]] || a
				}
			}
		}
		o.tally(merged, holding)
	}
	phase(first, func(rank int) int64 {
		if spec.IsSource(rank) {
			return int64(l)
		}
		return 0
	})
	phase(second, func(rank int) int64 { return int64(volume(rank)) * int64(l) })
	return o
}

// checkOracle compares an oracle with the static profile of the program
// the run replayed and with the run's send and byte totals.
func checkOracle(t *testing.T, label string, o *oracle, res *sim.Result) {
	t.Helper()
	if active := metrics.ActiveProfile(res); !reflect.DeepEqual(o.Active, active) {
		t.Fatalf("%s: oracle active %v, program %v", label, o.Active, active)
	}
	var sends int
	var bytes int64
	for _, ps := range res.Procs {
		sends += ps.Sends
		bytes += ps.SendBytes
	}
	if o.Sends != sends || o.Bytes != bytes {
		t.Fatalf("%s: oracle sends/bytes %d/%d, simulator %d/%d", label, o.Sends, o.Bytes, sends, bytes)
	}
}

// TestOracleMatchesSimulatorExactly: Br_Lin's compiled program has the
// oracle's active processors in every iteration, and its replay the
// oracle's sends and bytes.
func TestOracleMatchesSimulatorExactly(t *testing.T) {
	const l = 512
	for _, m := range [][2]int{{1, 16}, {4, 4}, {5, 7}, {10, 10}, {3, 13}} {
		r, c := m[0], m[1]
		p := r * c
		for _, d := range dist.All() {
			for _, s := range []int{1, 2, p / 3, p / 2, p} {
				spec := makeSpec(t, d, r, c, s)
				label := fmt.Sprintf("%s(%d) on %d×%d", d.Name(), s, r, c)
				checkOracle(t, "Br_Lin/"+label, brLinOracle(spec, l), runSim(t, BrLin(), spec, l))
			}
		}
	}
}

// TestBrXYOracleMatchesSimulator extends the cross-validation to the
// two-phase algorithms under both dimension-order rules.
func TestBrXYOracleMatchesSimulator(t *testing.T) {
	const l = 256
	for _, m := range [][2]int{{4, 4}, {3, 7}, {8, 5}, {10, 10}} {
		r, c := m[0], m[1]
		p := r * c
		for _, d := range dist.All() {
			for _, s := range []int{1, p / 3, p} {
				spec := makeSpec(t, d, r, c, s)
				label := fmt.Sprintf("%s(%d) on %d×%d", d.Name(), s, r, c)
				checkOracle(t, "Br_xy_source/"+label, brXYOracle(spec, l, true), runSim(t, BrXYSource(), spec, l))
				checkOracle(t, "Br_xy_dim/"+label, brXYOracle(spec, l, false), runSim(t, BrXYDim(), spec, l))
			}
		}
	}
}

// TestOracleQuick: on random machines and sources, Br_Lin's oracle ends
// with every processor holding a message.
func TestOracleQuick(t *testing.T) {
	f := func(ru, cu, su uint8, seed int64) bool {
		r, c := int(ru)%8+1, int(cu)%8+1
		p := r * c
		sources, err := dist.Random(seed).Sources(r, c, int(su)%p+1)
		if err != nil {
			return false
		}
		o := brLinOracle(Spec{Rows: r, Cols: c, Sources: sources, Indexing: topology.SnakeRowMajor}, 64)
		if len(o.Holders) == 0 {
			return p == 1
		}
		return o.Holders[len(o.Holders)-1] == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
