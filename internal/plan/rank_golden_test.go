package plan

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/rank.golden from the code under test")

const rankGolden = "testdata/rank.golden"

// rankCell is one broadcast instance of the analytic-tier golden grid.
type rankCell struct {
	label  string
	m      *machine.Machine
	spec   core.Spec
	msgLen int
}

// rankGoldenGrid is 630 broadcast cells — seven machines (square,
// non-square, odd, a 1×p line, both T3D sizes) × six distributions ×
// s ∈ p/{16,8,4,2,1} × L ∈ {64, 1 Ki, 4 Ki} — plus the 16 broadcast
// instances of the benchmark's frozen plan_cold grid
// (benchmark/workloads.go planGrid), whose top-6 sets decide the
// benchmark's golden decisions. The grid's AllToAll and AllReduce cells
// are not ranked: Decide probes those collectives' whole registries.
func rankGoldenGrid(t *testing.T) []rankCell {
	var cells []rankCell
	specOf := func(m *machine.Machine, dn string, s int) core.Spec {
		d, err := dist.ByName(dn)
		if err != nil {
			t.Fatal(err)
		}
		return testSpec(t, m, d, s)
	}
	for _, m := range []*machine.Machine{
		machine.Paragon(10, 10), machine.Paragon(16, 16), machine.Paragon(7, 9), machine.Paragon(1, 13),
		machine.Paragon(5, 3), machine.T3D(64), machine.T3D(256),
	} {
		for _, dn := range []string{"E", "Cr", "Sq", "R", "Dl", "B"} {
			for _, div := range []int{16, 8, 4, 2, 1} {
				s := max(m.P()/div, 1)
				spec := specOf(m, dn, s)
				for _, l := range []int{64, 1 << 10, 4 << 10} {
					cells = append(cells, rankCell{fmt.Sprintf("%s/%s/p/%d=%d/L=%d", m.Name, dn, div, s, l), m, spec, l})
				}
			}
		}
	}
	for _, m := range []*machine.Machine{machine.Paragon(10, 10), machine.Paragon(16, 16), machine.T3D(64), machine.T3D(256)} {
		for _, dn := range []string{"E", "Cr"} {
			for _, c := range []struct{ div, l int }{{8, 1 << 10}, {4, 4 << 10}} {
				s := m.P() / c.div
				cells = append(cells, rankCell{fmt.Sprintf("plan_cold/%s/Broadcast/%s(%d)/L=%d", m.Name, dn, s, c.l), m, specOf(m, dn, s), c.l})
			}
		}
	}
	return cells
}

// TestRankMatchesGolden pins the analytic tier: the table was generated
// by the planner that replayed the halving and (k+1)-section rules by
// hand, before Rank priced core's compiled schedule, so every candidate's
// PredictedMs (hex floats, exact) and every ranking order of it must be
// reproduced — the benchmark's plan_cold goldens freeze the top-6 sets,
// and nothing else asserts an analytic estimate. Regenerate with -update
// only when the cost model changes on purpose (and plan_cold's goldens
// with it).
func TestRankMatchesGolden(t *testing.T) {
	cells := rankGoldenGrid(t)
	bcast := New(Options{}).CandidatesFor(core.Broadcast)
	lines := make([]string, len(cells))
	for i, c := range cells {
		var sb strings.Builder
		sb.WriteString(c.label)
		for _, sc := range Rank(c.m, c.spec, c.msgLen, bcast) {
			fmt.Fprintf(&sb, " %s=%s", sc.Algorithm, strconv.FormatFloat(sc.PredictedMs, 'x', -1, 64))
		}
		lines[i] = sb.String()
	}
	if *update {
		if err := os.WriteFile(rankGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(rankGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("grid has %d cells, golden table has %d rows", len(lines), len(want))
	}
	bad := 0
	for i := range lines {
		if err := sameRanking(lines[i], want[i]); err != nil {
			if bad++; bad <= 10 {
				t.Errorf("row %d: %v\n got %s\nwant %s", i, err, lines[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more differing rows", bad-10)
	}
}

// sameRanking compares two golden rows: same cell, same algorithms in the
// same order, every estimate within 1e-12 relative.
func sameRanking(got, want string) error {
	g, w := strings.Fields(got), strings.Fields(want)
	if len(g) != len(w) || g[0] != w[0] {
		return fmt.Errorf("cell or candidate count differs")
	}
	for i := 1; i < len(g); i++ {
		gn, gv, _ := strings.Cut(g[i], "=")
		wn, wv, _ := strings.Cut(w[i], "=")
		if gn != wn {
			return fmt.Errorf("rank %d is %s, want %s", i, gn, wn)
		}
		gf, gerr := strconv.ParseFloat(gv, 64)
		wf, werr := strconv.ParseFloat(wv, 64)
		if gerr != nil || werr != nil {
			return fmt.Errorf("rank %d: unparsable estimate %q / %q", i, gv, wv)
		}
		if math.Abs(gf-wf) > 1e-12*math.Abs(wf) {
			return fmt.Errorf("%s predicted %v ms, want %v", gn, gf, wf)
		}
	}
	return nil
}

// TestRankAllocationBudget is the count gate behind pricing from the step
// stream: one Rank over the 16 broadcast candidates on the 16×16 Paragon
// allocates a few objects per priced schedule (the holder flags, the
// compiler's scratch, the ideal sources of the repositioning targets) and
// nothing per step. Replaying the pairing rules by hand, with a line
// state per line and a map per group exchange, cost 3 867 here.
func TestRankAllocationBudget(t *testing.T) {
	m := machine.Paragon(16, 16)
	spec := testSpec(t, m, dist.Equal(), 32)
	candidates := New(Options{}).CandidatesFor(core.Broadcast)
	// The least of several runs, so a GC in the middle of one cannot flake it.
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		least = min(least, testing.AllocsPerRun(1, func() { Rank(m, spec, 1024, candidates) }))
	}
	t.Logf("%.0f allocations per Rank", least)
	if least > 450 {
		t.Errorf("%.0f allocations per Rank over %d candidates, budget 450", least, len(candidates))
	}
}
