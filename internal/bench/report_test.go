package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// reportFile is the committed Markdown report of every experiment.
const reportFile = "../../REPORT.md"

// TestReportIsCurrent renders REPORT.md — one section per experiment with
// the paper's expected behaviour and the measured series — from the
// series the shape tests check, and compares it byte for byte with the
// committed file, so a simulated value that moved fails here by figure
// and cell. Every experiment is simulated, so the report is a pure
// function of the tree. -update (make report) rewrites the file.
func TestReportIsCurrent(t *testing.T) {
	series := figures(t)
	var b bytes.Buffer
	b.WriteString("# s-to-p broadcasting — regenerated results\n\n")
	b.WriteString("Values are simulated milliseconds (or percent where noted) and deterministic.\n")
	b.WriteString("`make report` regenerates this file; `go test ./...` fails when it is stale.\n\n")
	for _, e := range Experiments() {
		s := series[e.ID]
		fmt.Fprintf(&b, "## %s — %s\n\n", e.ID, e.Title)
		fmt.Fprintf(&b, "**Paper:** %s\n\n", e.Paper)
		writeMarkdownTable(&b, s)
		if s.Notes != "" {
			fmt.Fprintf(&b, "\n*%s*\n", s.Notes)
		}
		b.WriteByte('\n')
	}
	if *update {
		if err := os.WriteFile(reportFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, b.Bytes()) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(b.String(), "\n")
	section, shown := "", 0
	for i := 0; i < max(len(wantLines), len(gotLines)) && shown < 10; i++ {
		w, g := lineAt(wantLines, i), lineAt(gotLines, i)
		if strings.HasPrefix(g, "## ") {
			section = strings.Fields(g)[1]
		}
		if w != g {
			t.Errorf("REPORT.md:%d (%s)\n  committed: %s\n  tree:      %s", i+1, section, w, g)
			shown++
		}
	}
	t.Errorf("REPORT.md is stale; run 'make report' and commit the result if the change is intended")
}

// lineAt returns lines[i], or "" past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// writeMarkdownTable renders a series as a Markdown table, one row per x
// position and one column per curve.
func writeMarkdownTable(w io.Writer, s *Series) {
	fmt.Fprintf(w, "| %s |", s.XAxis)
	for _, name := range s.Order {
		fmt.Fprintf(w, " %s |", name)
	}
	fmt.Fprintf(w, "\n|---|")
	for range s.Order {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintln(w)
	for i, x := range s.XLabels {
		fmt.Fprintf(w, "| %s |", x)
		for _, name := range s.Order {
			fmt.Fprintf(w, " %.3f |", s.Get(name, i))
		}
		fmt.Fprintln(w)
	}
}
