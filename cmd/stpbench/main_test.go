package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	stpbcast "repro"
)

// stpbench runs one invocation and returns its exit status and stdout.
func stpbench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	t.Logf("stpbench %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	return code, stdout.String()
}

// TestUsageErrorsExit2: no subcommand, an unknown one, a flag that
// belongs to another subcommand and a bad flag value are usage errors.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nope"},
		{"-fig", "fig3"},
		{"session", "-conc", "4"},
		{"fig", "fig3", "-seed", "7"},
		{"session", "-repeat", "0"},
		{"session", "-engine", "live", "-sparse"},
		{"fig", "fig3", "-csv", "-plot"},
		{"daemon", "-rate", "5", "-conc", "2"},
	} {
		if code, _ := stpbench(t, args...); code != 2 {
			t.Errorf("stpbench %q exited %d, want 2", args, code)
		}
	}
}

// TestListPrintsEveryExperiment: list prints one line per experiment,
// led by its ID, in the registry's order — the sections of REPORT.md.
func TestListPrintsEveryExperiment(t *testing.T) {
	code, out := stpbench(t, "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	var want []string
	for _, e := range stpbcast.Experiments() {
		want = append(want, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("list prints %q, want %q", got, want)
	}
	report, err := os.ReadFile("../../REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, line := range strings.Split(string(report), "\n") {
		if id, ok := strings.CutPrefix(line, "## "); ok {
			sections = append(sections, strings.Fields(id)[0])
		}
	}
	if !slices.Equal(got, sections) {
		t.Errorf("list prints %q, REPORT.md has sections %q", got, sections)
	}
}

func TestFigCSVPrintsHeader(t *testing.T) {
	code, out := stpbench(t, "fig", "fig2", "-csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	e, err := stpbcast.ExperimentByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if header := s.XAxis + "," + strings.Join(s.Order, ",") + "\n"; !strings.Contains(out, header) {
		t.Errorf("output lacks the CSV header %q:\n%s", header, out)
	}
}

func TestDistDrawsOneGrid(t *testing.T) {
	code, out := stpbench(t, "dist", "-rows", "4", "-cols", "4", "-s", "2", "-dist", "E")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if n := strings.Count(out, " on 4×4:\n"); n != 1 {
		t.Fatalf("%d grids drawn, want 1:\n%s", n, out)
	}
	if !strings.HasPrefix(out, "E(2) on 4×4:\n") {
		t.Errorf("output does not start with the E(2) grid:\n%s", out)
	}
	if n := strings.Count(out, "#"); n != 2 {
		t.Errorf("grid marks %d sources, want 2:\n%s", n, out)
	}
}
