// Command stpreport regenerates the simulated experiments and emits a
// Markdown report — one section per paper table/figure with the paper's
// expected behaviour and the measured series — suitable for appending to
// EXPERIMENTS.md or pasting into an issue. REPORT.md is its output.
//
// Every experiment is simulated, so the report is reproducible to the
// byte apart from its date line. Wall-clock measurements of the real-byte
// engines are stpbench's session, mesh and daemon subcommands and the
// end-to-end benchmark (go run ./benchmark), not report sections.
//
// Usage:
//
//	stpreport              # simulated report to stdout
//	stpreport -o REPORT.md # write to a file (atomically: temp file + rename)
//	stpreport -ids fig3,fig9
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	stpbcast "repro"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	ids := flag.String("ids", "", "comma-separated experiment ids (default every experiment)")
	flag.Parse()
	if err := run(*out, *ids); err != nil {
		fmt.Fprintln(os.Stderr, "stpreport:", err)
		os.Exit(1)
	}
}

func run(out, ids string) error {
	var exps []stpbcast.Experiment
	if ids == "" {
		exps = stpbcast.Experiments()
	}
	for _, id := range strings.Split(ids, ",") {
		if id = strings.TrimSpace(id); id != "" {
			e, err := stpbcast.ExperimentByID(id)
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}
	var report bytes.Buffer
	if err := render(&report, exps); err != nil {
		return err
	}
	if out == "" {
		_, err := os.Stdout.Write(report.Bytes())
		return err
	}
	// Write beside the target and rename: a failed run leaves the previous
	// report in place, never a truncated one.
	f, err := os.CreateTemp(filepath.Dir(out), filepath.Base(out)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // fails harmlessly once the rename has happened
	if _, err := f.Write(report.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), out)
}

func render(w io.Writer, exps []stpbcast.Experiment) error {
	fmt.Fprintf(w, "# s-to-p broadcasting — regenerated results\n\n")
	fmt.Fprintf(w, "Generated %s by cmd/stpreport. Values are simulated milliseconds\n", time.Now().Format("2006-01-02 15:04"))
	fmt.Fprintf(w, "(or percent where noted) and deterministic.\n\n")
	for _, e := range exps {
		s, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.Title)
		fmt.Fprintf(w, "**Paper:** %s\n\n", e.Paper)
		writeMarkdownTable(w, s)
		if s.Notes != "" {
			fmt.Fprintf(w, "\n*%s*\n", s.Notes)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func writeMarkdownTable(w io.Writer, s *stpbcast.Series) {
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
