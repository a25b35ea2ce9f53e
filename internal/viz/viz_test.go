package viz

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestHeatmapScalesToRamp(t *testing.T) {
	mesh := topology.MustMesh2D(2, 3)
	load := []network.Time{0, 10, 20, 30, 40, 100}
	got, err := Heatmap(mesh, load)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 3 {
		t.Fatalf("grid shape wrong:\n%s", got)
	}
	if lines[0][0] != ' ' {
		t.Errorf("idle node not blank: %q", lines[0])
	}
	if lines[1][2] != '@' {
		t.Errorf("hottest node not '@': %q", lines[1])
	}
}

func TestHeatmapSizeMismatch(t *testing.T) {
	mesh := topology.MustMesh2D(2, 2)
	got, err := Heatmap(mesh, []network.Time{1})
	if err == nil {
		t.Fatalf("mismatch not reported, rendered %q", got)
	}
	if got != "" {
		t.Errorf("error case still returned a grid: %q", got)
	}
	if !strings.Contains(err.Error(), "viz:") {
		t.Errorf("error missing viz: prefix: %v", err)
	}
}

func TestBars(t *testing.T) {
	got := Bars([]string{"a", "bb"}, []float64{1, 2}, 10)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %q", got)
	}
	if strings.Count(lines[1], "█") != 10 {
		t.Errorf("max bar not full width: %q", lines[1])
	}
	if strings.Count(lines[0], "█") != 5 {
		t.Errorf("half bar wrong: %q", lines[0])
	}
	if got := Bars([]string{"a"}, []float64{1, 2}, 10); !strings.Contains(got, "viz:") {
		t.Error("mismatch not reported")
	}
}

func TestTwoStepHotspotVisible(t *testing.T) {
	// After a 2-Step run, the hottest links must be adjacent to P0's
	// region — the congestion picture of the paper.
	mesh := topology.MustMesh2D(8, 8)
	spec := core.Spec{Rows: 8, Cols: 8, Sources: seq(16, 4), Indexing: topology.SnakeRowMajor}
	_, nw, err := machine.Paragon(8, 8).RunSim(core.TwoStep(), spec, machine.Uniform(4096), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hot := nw.HotLinks(3)
	if len(hot) != 3 {
		t.Fatalf("hot links: %v", hot)
	}
	for _, h := range hot {
		r, c := h.Link.From/mesh.Cols, h.Link.From%mesh.Cols
		if r+c > 4 {
			t.Errorf("hot link %v far from P0 (at %d,%d)", h.Link, r, c)
		}
	}
	// The heatmap must render without error and show node 0 hot.
	heat, err := Heatmap(mesh, nw.NodeLoad())
	if err != nil {
		t.Fatal(err)
	}
	if heat[0] == ' ' {
		t.Errorf("P0 cold in heatmap:\n%s", heat)
	}
}

func seq(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i*4
	}
	return out
}

func TestHeatmapWithSharedScale(t *testing.T) {
	mesh := topology.MustMesh2D(1, 2)
	// Under a shared large max, moderate loads render low on the ramp.
	got, err := HeatmapWithMax(mesh, []network.Time{10, 50}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] == '@' {
		t.Fatalf("half-load rendered as max: %q", got)
	}
	own, err := Heatmap(mesh, []network.Time{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if own[1] != '@' {
		t.Fatalf("own-scale max not '@': %q", own)
	}
}
