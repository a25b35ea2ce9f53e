package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Correctness goldens. They are compiled into the program, so a run
// checks against the goldens of the commit it was built from;
// -update-golden rewrites the files under benchmark/golden/ from what the
// current code produces (review the diff: a changed golden means changed
// behaviour, which a performance PR must not cause).

//go:embed golden/*.json
var goldenFS embed.FS

// planGolden is the decision the planner must reach for one grid cell.
type planGolden struct {
	Algorithm string `json:"algorithm"`
	Source    string `json:"source"`
}

// countGolden is the exact traffic of one op of a workload: algorithm
// sends and payload bytes summed over ranks (barrier frames excluded).
type countGolden struct {
	Sends int64 `json:"sends"`
	Bytes int64 `json:"bytes"`
}

type goldens struct {
	update  bool
	Figures map[string]string      // figure id → SHA-256 of the formatted series
	Plan    map[string]planGolden  // grid label → decision
	Counts  map[string]countGolden // workload → per-op traffic
}

var goldenFiles = []string{"sim_figures.json", "plan_cold.json", "counts.json"}

func (g *goldens) tables() []any { return []any{&g.Figures, &g.Plan, &g.Counts} }

// loadGoldens reads the embedded goldens. In update mode it starts empty
// and records what the run produces instead of checking it.
func loadGoldens(update bool) (*goldens, error) {
	g := &goldens{update: update, Figures: map[string]string{}, Plan: map[string]planGolden{}, Counts: map[string]countGolden{}}
	if update {
		return g, nil
	}
	for i, dst := range g.tables() {
		data, err := goldenFS.ReadFile("golden/" + goldenFiles[i])
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, dst); err != nil {
			return nil, fmt.Errorf("golden/%s: %v", goldenFiles[i], err)
		}
	}
	return g, nil
}

// save writes the recorded goldens under dir (update mode).
func (g *goldens) save(dir string) error {
	for i, src := range g.tables() {
		data, err := json.MarshalIndent(src, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, goldenFiles[i]), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (g *goldens) checkFigure(id, digest string) error {
	if g.update {
		g.Figures[id] = digest
		return nil
	}
	if want := g.Figures[id]; want != digest {
		return fmt.Errorf("%s: series digest %s, golden %s", id, digest, want)
	}
	return nil
}

func (g *goldens) checkPlan(label string, got planGolden) error {
	if g.update {
		g.Plan[label] = got
		return nil
	}
	if want := g.Plan[label]; want != got {
		return fmt.Errorf("plan %s: decided %+v, golden %+v", label, got, want)
	}
	return nil
}

// checkCounts compares one op's traffic with the golden; sends < 0 means
// only the bytes are known (daemon and cluster replies carry no send
// count).
func (g *goldens) checkCounts(workload string, sends, bytes int64) error {
	if g.update {
		c := g.Counts[workload]
		if sends >= 0 {
			c.Sends = sends
		}
		c.Bytes = bytes
		g.Counts[workload] = c
		return nil
	}
	want, ok := g.Counts[workload]
	if !ok {
		return fmt.Errorf("no golden counts for %s", workload)
	}
	if bytes != want.Bytes || (sends >= 0 && sends != want.Sends) {
		return fmt.Errorf("%s: op moved %d sends / %d bytes, golden %d / %d", workload, sends, bytes, want.Sends, want.Bytes)
	}
	return nil
}
