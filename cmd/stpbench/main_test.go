package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
// belongs to another subcommand, a bad flag value, a stray argument and a
// contradictory combination are usage errors. Each prints nothing on
// stdout and the subcommand's flags (or the subcommand list) on stderr.
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
		{"daemon", "-conc", "2,0"},
		{"measure", "-s", "8,x"},
		{"measure", "-algs", "Br_Nope"},
		{"plan", "-machine", "nope"},
		{"plan", "extra", "-bytes", "10"},
		{"plan", "-p", "64"},
		{"plan", "-collective", "AllToAll", "-s", "4"},
		{"sweep", "-dists", "E,Nope"},
		{"sweep", "-machine", "hypercube", "-rows", "3", "-cols", "3"},
		{"trace", "-machine", "nope"},
		{"trace", "-engine", "sim", "-fault-drop", "0.1"},
		{"trace", "-engine", "live", "-heat"},
		{"trace", "-validate"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("stpbench %q exited %d, want 2\n%s", args, code, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("stpbench %q printed on stdout before failing:\n%s", args, stdout.String())
		}
		want := usageLine
		if len(args) > 0 && commands[args[0]] != nil {
			want = "Usage of stpbench " + args[0] + ":"
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stpbench %q: stderr lacks %q:\n%s", args, want, stderr.String())
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

func TestPlanPrintsChosen(t *testing.T) {
	code, out := stpbench(t, "plan", "-rows", "4", "-cols", "4", "-s", "4", "-bytes", "1024")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "\nchosen     ") {
		t.Errorf("no chosen line:\n%s", out)
	}
}

func TestMeasurePrintsOneRow(t *testing.T) {
	code, out := stpbench(t, "measure", "-rows", "4", "-cols", "4", "-s", "4", "-bytes", "512")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "machine,algorithm,") || !strings.HasPrefix(lines[1], "paragon") {
		t.Errorf("want the CSV header and one paragon row, got:\n%s", out)
	}
}

// TestTraceFilesValidate: the files trace writes pass trace -validate,
// and a truncated copy fails it.
func TestTraceFilesValidate(t *testing.T) {
	dir := t.TempDir()
	chrome, events := filepath.Join(dir, "t.json"), filepath.Join(dir, "t.jsonl")
	code, _ := stpbench(t, "trace", "-engine", "sim", "-rows", "4", "-cols", "4", "-alg", "Br_Lin", "-s", "4", "-bytes", "256",
		"-chrome", chrome, "-json", events)
	if code != 0 {
		t.Fatalf("trace exit %d", code)
	}
	if code, out := stpbench(t, "trace", "-validate", chrome, events); code != 0 {
		t.Fatalf("validate exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := stpbench(t, "trace", "-validate", events, bad); code != 1 {
		t.Errorf("validate of a truncated file exited %d, want 1:\n%s", code, out)
	}
}

// TestChaosAbortLineIsReplayable: under drop-all, which starved rank's
// deadline fires first is up to timing. Two aborts that name different
// ranks must print the same outcome line, so a seed's output can be
// compared with diff.
func TestChaosAbortLineIsReplayable(t *testing.T) {
	var dropAll chaosScenario
	for _, sc := range chaosScenarios {
		if sc.name == "drop-all" {
			dropAll = sc
		}
	}
	var lines []string
	for _, rank := range []int{3, 9} {
		err := fmt.Errorf("live: rank %d: recv 0: blocked 2s (receive deadline exceeded)\nrun aborted", rank)
		line, bad := chaosOutcome(dropAll, nil, err)
		if bad {
			t.Fatalf("clean abort judged a violation: %s", line)
		}
		lines = append(lines, line)
	}
	if lines[0] != lines[1] || lines[0] != "ok (clean abort: deadline)" {
		t.Fatalf("outcome lines %q and %q, want both %q", lines[0], lines[1], "ok (clean abort: deadline)")
	}
}
