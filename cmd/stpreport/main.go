// Command stpreport regenerates the simulated experiments and emits a
// Markdown report — one section per paper table/figure with the paper's
// expected behaviour and the measured series — suitable for appending to
// EXPERIMENTS.md or pasting into an issue. REPORT.md is its output.
//
// By default it runs every experiment whose values are simulated, hence
// reproducible to the byte; the wall-clock experiments (figSession,
// figSparseMesh, figDaemon, figCluster) appear only when named in -ids.
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
	// figCluster re-executes this binary as its worker processes.
	stpbcast.MaybeClusterWorker()
	out := flag.String("o", "", "output file (default stdout)")
	ids := flag.String("ids", "", "comma-separated experiment ids (default every simulated experiment)")
	flag.Parse()
	if err := run(*out, *ids); err != nil {
		fmt.Fprintln(os.Stderr, "stpreport:", err)
		os.Exit(1)
	}
}

func run(out, ids string) error {
	var exps []stpbcast.Experiment
	if ids == "" {
		for _, e := range stpbcast.Experiments() {
			if !e.WallClock {
				exps = append(exps, e)
			}
		}
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
	fmt.Fprintf(w, "(or percent where noted) and deterministic, except in sections marked\n")
	fmt.Fprintf(w, "wall clock, which are measured on the host and only appear on request.\n\n")
	for _, e := range exps {
		s, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.Title)
		fmt.Fprintf(w, "**Paper:** %s\n\n", e.Paper)
		if e.WallClock {
			fmt.Fprintf(w, "**Wall clock:** measured on this host; values vary from run to run.\n\n")
		}
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
