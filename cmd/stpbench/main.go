// Command stpbench is the one developer binary: it regenerates the
// tables and figures of the paper's evaluation section on the simulated
// Paragon and T3D, draws the source distributions, drives the planner,
// traces single runs on any engine, runs the chaos harness over the
// real-byte engines, and times the real-byte engines on the host it runs
// on.
//
// Usage:
//
//	stpbench list                           # every experiment id and title
//	stpbench fig fig3                       # one figure's series
//	stpbench fig all                        # everything (EXPERIMENTS.md input)
//	stpbench fig fig6 -csv                  # machine-readable output
//	stpbench fig fig9 -plot                 # ASCII bar charts
//	stpbench dist -rows 10 -cols 10 -s 30   # Figure 1: every distribution
//	stpbench dist -rows 16 -cols 16 -s 64 -dist Cr -ideal
//	stpbench plan -machine paragon -rows 10 -cols 10 -dist E -s 30 -bytes 4096
//	stpbench plan -machine t3d -rows 8 -cols 8 -collective AllToAll -bytes 64
//	stpbench sweep -machine t3d -rows 16 -cols 16 -dists E,Cr -s 10,64 -bytes 1024,16384
//	stpbench measure -rows 16 -cols 16 -algs Br_Lin,Repos_xy_source -dists E,Cr -s 16,64 -bytes 4096
//	stpbench trace -alg Br_xy_source -s 30 -hot 5 -heat
//	stpbench trace -engine tcp -rows 4 -cols 4 -alg Br_Lin -s 4 -fault-dup 0.5 -chrome trace.json
//	stpbench trace -validate trace.json events.jsonl
//	stpbench chaos                          # fault-injection sweep over both engines
//	stpbench chaos -seed 7 -engine tcp
//	stpbench session -repeat 200 -engine tcp     # warm session vs one-shot throughput
//	stpbench session -engine tcp -sparse         # route-planned sparse mesh
//	stpbench mesh                           # sparse vs full TCP mesh, p = 16 … 256
//	stpbench daemon -conc 1,2,4,8 -requests 32   # an in-process pooled daemon
//	stpbench daemon -addr 127.0.0.1:7411 -conc 1,2,4,8 -requests 200
//	stpbench daemon -addr 127.0.0.1:7411 -rate 50 -duration 10s -out daemon-load.json
//
// Each subcommand parses its own flags: a flag of another subcommand, a
// bad value or a contradictory combination is a usage error (exit 2),
// never silently ignored. Every subcommand that takes a machine resolves
// -machine, -rows and -cols through stpbcast.NewMachineByName. Experiment,
// plan, sweep and measure values are simulated and identical on every
// run; session, mesh and daemon report wall clock on the host they run
// on.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	stpbcast "repro"
	"repro/internal/daemon"
	"repro/internal/dist"
	"repro/internal/tcp"
	"repro/internal/viz"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// commands maps each subcommand to the function that runs it. Each
// registers its flags on fs, parses args with parse and writes its
// report to out.
var commands = map[string]func(fs *flag.FlagSet, args []string, out io.Writer) error{
	"list":    runList,
	"fig":     runFig,
	"dist":    runDist,
	"plan":    runPlan,
	"sweep":   runSweep,
	"measure": runMeasure,
	"trace":   runTrace,
	"chaos":   runChaos,
	"session": runSession,
	"mesh":    runMesh,
	"daemon":  runDaemon,
}

const usageLine = "usage: stpbench {list|fig <id>|all|dist|plan|sweep|measure|trace|chaos|session|mesh|daemon} [flags]"

// errUsage is returned once a usage error has been reported on stderr.
var errUsage = errors.New("usage")

// run executes one stpbench invocation and returns its exit status: 0
// on success, 1 when the measurement fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usageLine)
		return 2
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "stpbench: unknown subcommand %q\n%s\n", args[0], usageLine)
		return 2
	}
	fs := flag.NewFlagSet("stpbench "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	switch err := cmd(fs, args[1:], stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintln(stderr, "stpbench:", err)
		return 1
	}
}

// parse parses a subcommand's flags; the flag package reports a flag the
// subcommand does not define, or a malformed value. An argument left
// after the flags is a usage error too.
func parse(fs *flag.FlagSet, args []string) error {
	operands, err := parseOperands(fs, args)
	if err == nil && len(operands) > 0 {
		return usage(fs, "unexpected argument %q", operands[0])
	}
	return err
}

// parseOperands is parse for a subcommand that takes arguments after its
// flags: it returns them.
func parseOperands(fs *flag.FlagSet, args []string) ([]string, error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errUsage
	}
	return fs.Args(), nil
}

// usage reports a usage error the way the flag package reports a bad
// flag — the message, then the subcommand's flags.
func usage(fs *flag.FlagSet, format string, a ...any) error {
	fmt.Fprintf(fs.Output(), format+"\n", a...)
	fs.Usage()
	return errUsage
}

// machineFlags registers -machine, -rows and -cols and returns the
// function that resolves them, after parse, through
// stpbcast.NewMachineByName; an unknown name or a bad size is a usage
// error.
func machineFlags(fs *flag.FlagSet) func() (*stpbcast.Machine, error) {
	name := fs.String("machine", "paragon", "paragon, paragon-mpi, t3d (p = rows·cols) or hypercube (rows·cols a power of two)")
	rows := fs.Int("rows", 10, "mesh rows")
	cols := fs.Int("cols", 10, "mesh columns")
	return func() (*stpbcast.Machine, error) {
		m, err := stpbcast.NewMachineByName(*name, *rows, *cols)
		if err != nil {
			return nil, usage(fs, "%v", err)
		}
		return m, nil
	}
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(v string) []string {
	var out []string
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// intList parses the comma-separated integers of flag -name; a malformed
// entry is a usage error.
func intList(fs *flag.FlagSet, name, v string) ([]int, error) {
	var out []int
	for _, part := range splitList(v) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, usage(fs, "-%s: bad integer %q", name, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// isSet reports whether flag name was given on the command line.
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// sourceFlagsFit rejects a -dist or -s that coll does not take, never
// silently ignoring it: a sourceless collective takes neither, a
// single-root one no -s but 1.
func sourceFlagsFit(fs *flag.FlagSet, coll stpbcast.Collective, s int) error {
	switch {
	case !coll.Caps().TakesSources && (isSet(fs, "dist") || isSet(fs, "s")):
		return usage(fs, "-dist/-s: %s takes no source set (every rank contributes)", coll)
	case coll.Caps().SingleSource && isSet(fs, "s") && s != 1:
		return usage(fs, "-s: %s takes a single root, got %d", coll, s)
	}
	return nil
}

// engines maps an -engine value to the engines it selects; "both" is the
// two real-byte engines.
func engines(fs *flag.FlagSet, name string, allowed ...string) ([]stpbcast.Engine, error) {
	for _, a := range allowed {
		if a != name {
			continue
		}
		if name == "both" {
			return []stpbcast.Engine{stpbcast.EngineLive, stpbcast.EngineTCP}, nil
		}
		e, err := stpbcast.ParseEngine(name)
		return []stpbcast.Engine{e}, err
	}
	return nil, usage(fs, "-engine %q invalid (want one of %s)", name, strings.Join(allowed, ", "))
}

func runList(fs *flag.FlagSet, args []string, out io.Writer) error {
	if err := parse(fs, args); err != nil {
		return err
	}
	for _, e := range stpbcast.Experiments() {
		fmt.Fprintf(out, "%-18s %s\n", e.ID, e.Title)
	}
	return nil
}

func runFig(fs *flag.FlagSet, args []string, out io.Writer) error {
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	plot := fs.Bool("plot", false, "render each curve as an ASCII bar chart")
	parallel := fs.Int("parallel", 0, "max concurrent experiment cells (0 = GOMAXPROCS, 1 = serial); output is identical at every setting")
	id := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	if err := parse(fs, args); err != nil {
		return err
	}
	if id == "" {
		return usage(fs, "fig wants an experiment id (see stpbench list) or all")
	}
	if *csv && *plot {
		return usage(fs, "-csv and -plot are mutually exclusive")
	}
	stpbcast.SetParallelism(*parallel)
	exps := stpbcast.Experiments()
	if id != "all" {
		e, err := stpbcast.ExperimentByID(id)
		if err != nil {
			return err
		}
		exps = []stpbcast.Experiment{e}
	}
	for _, e := range exps {
		s, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(out, "== %s == %s\n", e.ID, e.Title)
		fmt.Fprintf(out, "paper: %s\n", e.Paper)
		switch {
		case *csv:
			printCSV(out, s)
		case *plot:
			for _, curve := range s.Order {
				vals := make([]float64, len(s.XLabels))
				for i := range s.XLabels {
					vals[i] = s.Get(curve, i)
				}
				fmt.Fprint(out, viz.SeriesChart(curve+" ["+s.YAxis+"]", s.XLabels, vals, 50))
			}
		default:
			fmt.Fprint(out, s.Format())
		}
		fmt.Fprintln(out)
	}
	return nil
}

func printCSV(out io.Writer, s *stpbcast.Series) {
	fmt.Fprintf(out, "%s,%s\n", s.XAxis, strings.Join(s.Order, ","))
	for i, x := range s.XLabels {
		row := []string{x}
		for _, name := range s.Order {
			row = append(row, fmt.Sprintf("%.4f", s.Get(name, i)))
		}
		fmt.Fprintln(out, strings.Join(row, ","))
	}
}

// runDist draws the paper's source distributions on a logical mesh, the
// way Figure 1 does ('#' marks a source processor).
func runDist(fs *flag.FlagSet, args []string, out io.Writer) error {
	rows := fs.Int("rows", 10, "mesh rows")
	cols := fs.Int("cols", 10, "mesh columns")
	s := fs.Int("s", 30, "number of source processors")
	name := fs.String("dist", "", "single distribution to draw (R C E Dr Dl B Cr Sq); empty = all")
	ideal := fs.Bool("ideal", false, "also draw the ideal repositioning targets")
	if err := parse(fs, args); err != nil {
		return err
	}
	dists := stpbcast.Distributions()
	if *name != "" {
		d, err := stpbcast.DistributionByName(*name)
		if err != nil {
			return usage(fs, "-dist: %v", err)
		}
		dists = []stpbcast.Distribution{d}
	}
	if *ideal {
		dists = append(dists, dist.IdealRows(), dist.IdealColumns(), dist.IdealSnake())
	}
	for _, d := range dists {
		sources, err := d.Sources(*rows, *cols, *s)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name(), err)
		}
		fmt.Fprintf(out, "%s(%d) on %d×%d:\n%s\n", d.Name(), *s, *rows, *cols, dist.Render(*rows, *cols, sources))
	}
	return nil
}

// runSession times -repeat back-to-back 1 KiB Br_Lin E(4) broadcasts on
// a 4×4 mesh twice per engine: once paying full engine setup per
// broadcast (the one-shot Run), once over a single warm Session whose
// Open is included in its time. It prints both rates, and their ratio,
// at a tenth, a quarter, half and all of the runs, then the session's
// stats. -sparse dials the route-planned link set (stpbcast.RoutesFor)
// at Open instead of before the first run.
func runSession(fs *flag.FlagSet, args []string, out io.Writer) error {
	engine := fs.String("engine", "both", "sim, live, tcp or both")
	n := fs.Int("repeat", 100, "broadcast count")
	sparse := fs.Bool("sparse", false, "prefetch the route plan at Open instead of dialing before the first run (with -engine tcp)")
	if err := parse(fs, args); err != nil {
		return err
	}
	engs, err := engines(fs, *engine, "sim", "live", "tcp", "both")
	if err != nil {
		return err
	}
	switch {
	case *n <= 0:
		return usage(fs, "-repeat must be positive, got %d", *n)
	case *sparse && *engine != "tcp":
		// -sparse shapes the TCP mesh only; under any other engine it
		// would be silently ignored for part or all of the comparison.
		return usage(fs, "-sparse is TCP-only; pass -engine tcp alongside it")
	}
	m := stpbcast.NewParagon(4, 4)
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: 1024}
	opts := stpbcast.RunOptions{RecvTimeout: 30 * time.Second}
	var links [][2]int
	if *sparse {
		if links, err = stpbcast.RoutesFor(m, cfg); err != nil {
			return fmt.Errorf("route extraction: %w", err)
		}
	}
	fmt.Fprintf(out, "session: %d × %d B Br_Lin broadcasts, 4×4 mesh, E s=%d", *n, cfg.MsgBytes, cfg.Sources)
	if *sparse {
		fmt.Fprintf(out, ", sparse mesh (%d planned links)", len(links))
	}
	fmt.Fprintf(out, "; session time includes Open\n%-6s %6s %18s %18s %9s\n", "engine", "runs", "one-shot bcasts/s", "session bcasts/s", "speedup")

	var marks []int
	for _, k := range []int{*n / 10, *n / 4, *n / 2, *n} {
		if k > 0 && (len(marks) == 0 || k > marks[len(marks)-1]) {
			marks = append(marks, k)
		}
	}
	for _, eng := range engs {
		oneShot, err := timed(marks, func(done func(int)) error {
			for i := 0; i < *n; i++ {
				if _, err := stpbcast.Run(m, eng, cfg, opts); err != nil {
					return fmt.Errorf("%s one-shot run %d: %w", eng, i, err)
				}
				done(i + 1)
			}
			return nil
		})
		if err != nil {
			return err
		}
		var stats stpbcast.SessionStats
		warm, err := timed(marks, func(done func(int)) error {
			s, err := stpbcast.Open(m, eng, stpbcast.SessionOptions{Links: links})
			if err != nil {
				return fmt.Errorf("%s open: %w", eng, err)
			}
			if err := sessionLoop(s, cfg, opts, *n, done); err != nil {
				s.Close()
				return fmt.Errorf("%s session: %w", eng, err)
			}
			stats, err = s.Close()
			return err
		})
		if err != nil {
			return err
		}
		for i, k := range marks {
			osRate, wRate := float64(k)/oneShot[i].Seconds(), float64(k)/warm[i].Seconds()
			fmt.Fprintf(out, "%-6s %6d %18.1f %18.1f %8.2fx\n", eng, k, osRate, wRate, wRate/osRate)
		}
		fmt.Fprintf(out, "%-6s session stats: %d runs, %d B sent, %d reconnects\n", eng, stats.Runs, stats.Bytes, stats.Reconnects)
	}
	return nil
}

// timed runs loop, which reports every completed broadcast's count
// through done, and returns the wall time from the call to each count
// in marks (ascending).
func timed(marks []int, loop func(done func(int)) error) ([]time.Duration, error) {
	start := time.Now()
	at := make([]time.Duration, 0, len(marks))
	err := loop(func(k int) {
		if len(at) < len(marks) && k == marks[len(at)] {
			at = append(at, time.Since(start))
		}
	})
	return at, err
}

// sessionLoop drives n broadcasts through the warm session, reporting
// each completion through done.
func sessionLoop(s *stpbcast.Session, cfg stpbcast.Config, opts stpbcast.RunOptions, n int, done func(int)) error {
	for i := 0; i < n; i++ {
		if _, err := s.Run(cfg, opts); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		done(i + 1)
	}
	return nil
}

// Mesh sweep parameters. The full mesh stops at meshFullMaxP: p=256
// would need p(p−1)/2 = 32 640 connections (~65 k descriptors), beyond a
// default descriptor limit — the scaling wall the sparse mesh removes.
const (
	meshSources  = 4
	meshMsgLen   = 512
	meshFullMaxP = 128
)

// runMesh builds, per Paragon shape p = 16 … 256, a TCP mesh from the
// routes Br_Lin E(4) uses (stpbcast.RoutesFor) and the full mesh, and
// prints their connection counts and setup times, then one real-byte
// broadcast over a session opened on the same routes, checked
// (Result.Check) — at p ≥ 128 the runs the full mesh cannot reach. The
// bare machines exist for the pairs, conns and setup columns, which no
// session reports.
func runMesh(fs *flag.FlagSet, args []string, out io.Writer) error {
	if err := parse(fs, args); err != nil {
		return err
	}
	fmt.Fprintf(out, "mesh: route-planned sparse vs full TCP mesh, Br_Lin E(%d), %d B payloads; full mesh skipped past p=%d\n",
		meshSources, meshMsgLen, meshFullMaxP)
	fmt.Fprintf(out, "%5s %7s %13s %11s %16s %14s %9s\n", "p", "pairs", "sparse conns", "full conns", "sparse setup ms", "full setup ms", "bcast ms")
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: meshSources, MsgBytes: meshMsgLen}
	for _, mesh := range [][2]int{{4, 4}, {4, 8}, {8, 8}, {8, 16}, {16, 16}} {
		m := stpbcast.NewParagon(mesh[0], mesh[1])
		p := m.P()
		routes, err := stpbcast.RoutesFor(m, cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		tm, err := tcp.NewMachine(p, tcp.Options{Links: routes})
		if err != nil {
			return fmt.Errorf("sparse mesh p=%d: %w", p, err)
		}
		sparseSetup := time.Since(start)
		pairs, conns := tm.PlannedPairs(), tm.ConnsOpened()
		if err := tm.Close(); err != nil {
			return err
		}
		s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{Links: routes})
		if err != nil {
			return fmt.Errorf("sparse session p=%d: %w", p, err)
		}
		res, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: time.Minute})
		if err == nil {
			err = res.Check()
		}
		if _, cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("sparse broadcast p=%d: %w", p, err)
		}

		full, fullSetup := "-", "-"
		if p <= meshFullMaxP {
			start = time.Now()
			fm, err := tcp.NewMachine(p, tcp.Options{})
			if err != nil {
				return fmt.Errorf("full mesh p=%d: %w", p, err)
			}
			fullSetup = fmt.Sprintf("%.3f", time.Since(start).Seconds()*1e3)
			full = fmt.Sprint(fm.ConnsOpened())
			if err := fm.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "%5d %7d %13d %11s %16.3f %14s %9.3f\n",
			p, pairs, conns, full, sparseSetup.Seconds()*1e3, fullSetup, res.Elapsed.Seconds()*1e3)
	}
	return nil
}

// chaosScenario is one fault plan plus the invariant it must satisfy:
// graceful plans complete with intact bundles, disruptive plans abort
// with a diagnostic containing wantErr — never a silent hang (the
// deadlines bound every wait) and never a wrong answer.
type chaosScenario struct {
	name    string
	plan    func(seed int64) stpbcast.FaultPlan
	wantErr string // "" = must complete gracefully
}

var chaosScenarios = []chaosScenario{
	{
		name: "dup+delay",
		plan: func(seed int64) stpbcast.FaultPlan {
			return stpbcast.FaultPlan{Seed: seed, Duplicate: 0.25, DelayProb: 0.25, MaxDelay: time.Millisecond}
		},
	},
	{
		name:    "drop-all",
		plan:    func(seed int64) stpbcast.FaultPlan { return stpbcast.FaultPlan{Seed: seed, Drop: 1} },
		wantErr: "deadline",
	},
	{
		name: "kill-rank",
		plan: func(seed int64) stpbcast.FaultPlan {
			return stpbcast.FaultPlan{Kills: []stpbcast.FaultKill{{Rank: 5, Op: 2}}}
		},
		wantErr: "rank 5 killed",
	},
}

// runChaos sweeps every broadcast algorithm across the fault scenarios
// on the requested real-byte engines, verifying that each injected
// fault either degrades gracefully (bundles identical to a fault-free
// run) or aborts cleanly with a diagnostic. It returns an error if any
// run violates that invariant.
func runChaos(fs *flag.FlagSet, args []string, out io.Writer) error {
	seed := fs.Int64("seed", 1, "fault schedule seed (same seed = same fault schedule)")
	engine := fs.String("engine", "both", "live, tcp or both")
	if err := parse(fs, args); err != nil {
		return err
	}
	engs, err := engines(fs, *engine, "live", "tcp", "both")
	if err != nil {
		return err
	}
	m := stpbcast.NewParagon(3, 4)
	fmt.Fprintf(out, "chaos sweep: seed %d, 3x4 mesh, 5 Cr sources\n", *seed)
	fmt.Fprintf(out, "%-22s %-5s %-10s %-8s %s\n", "algorithm", "eng", "scenario", "faults", "outcome")
	failures := 0
	for _, alg := range stpbcast.Algorithms() {
		cfg := stpbcast.Config{Algorithm: alg.Name(), Distribution: "Cr", Sources: 5, MsgBytes: 16}
		for _, eng := range engs {
			for _, sc := range chaosScenarios {
				plan := sc.plan(*seed)
				res, err := stpbcast.Run(m, eng, cfg, stpbcast.RunOptions{
					RecvTimeout: 2 * time.Second,
					RunTimeout:  60 * time.Second,
					Faults:      &plan,
				})
				outcome, bad := chaosOutcome(sc, res, err)
				nfaults := "-"
				if res != nil {
					nfaults = fmt.Sprintf("%d", len(res.Faults))
				}
				fmt.Fprintf(out, "%-22s %-5s %-10s %-8s %s\n", alg.Name(), eng, sc.name, nfaults, outcome)
				if bad {
					failures++
				}
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d chaos run(s) violated the degrade-or-abort invariant", failures)
	}
	fmt.Fprintln(out, "all chaos runs degraded gracefully or aborted with a diagnostic")
	return nil
}

// chaosOutcome classifies one chaos run against its scenario's
// invariant and reports whether it violated it. A graceful run's bundles
// must pass the broadcast postcondition (Result.Check); a clean abort is
// reported by its scenario's class, so one seed prints the same line
// every time.
func chaosOutcome(sc chaosScenario, res *stpbcast.Result, err error) (string, bool) {
	if sc.wantErr == "" {
		if err != nil {
			return fmt.Sprintf("FAIL: graceful plan aborted: %v", err), true
		}
		if err := res.Check(); err != nil {
			return "FAIL: " + err.Error(), true
		}
		return "ok (bundles intact)", false
	}
	if err == nil {
		// A disruptive plan that injected nothing (e.g. the killed rank
		// finished before reaching its operation index) leaves the run
		// healthy — inert, not a violation.
		if res != nil && len(res.Faults) == 0 {
			return "ok (plan inert for this algorithm)", false
		}
		return fmt.Sprintf("FAIL: expected abort mentioning %q, run completed", sc.wantErr), true
	}
	if !strings.Contains(err.Error(), sc.wantErr) {
		return fmt.Sprintf("FAIL: abort lost diagnostic %q: %v", sc.wantErr, err), true
	}
	// The abort's own text names whichever starved rank's deadline fired
	// first, which timing decides; the class keeps the line replayable.
	return "ok (clean abort: " + sc.wantErr + ")", false
}

// runDaemon load-generates broadcast requests — a closed-loop
// concurrency sweep by default, a fixed-rate open loop with -rate — and
// prints req/s and p50/p95/p99 latency per level. With -addr it drives a
// running stpbcastd; without, it drives an in-process daemon serving
// every request from its warm session pool. With -out, the reports are
// also written as JSON.
func runDaemon(fs *flag.FlagSet, args []string, out io.Writer) error {
	addr := fs.String("addr", "", "drive a running stpbcastd at this address instead of an in-process daemon")
	engine := fs.String("engine", "tcp", "sim, live or tcp")
	conc := fs.String("conc", "8", "closed-loop worker counts, comma-separated sweep")
	requests := fs.Int("requests", 200, "closed-loop requests per concurrency level")
	rate := fs.Float64("rate", 0, "open-loop arrivals per second; 0 = closed loop")
	duration := fs.Duration("duration", 5*time.Second, "open-loop duration (with -rate)")
	rows := fs.Int("rows", 4, "mesh rows")
	cols := fs.Int("cols", 4, "mesh cols")
	collective := fs.String("collective", "", "collective pattern, absent = Broadcast")
	alg := fs.String("alg", "Br_Lin", "algorithm")
	distName := fs.String("dist", "E", "source distribution")
	sources := fs.Int("s", 4, "source count")
	msgBytes := fs.Int("bytes", 1024, "per-source message bytes")
	tenant := fs.String("tenant", "stpbench", "tenant name")
	outFile := fs.String("out", "", "write the load reports as JSON to this file")
	if err := parse(fs, args); err != nil {
		return err
	}
	if _, err := engines(fs, *engine, "sim", "live", "tcp"); err != nil {
		return err
	}
	coll, err := stpbcast.ParseCollective(*collective)
	if err != nil {
		return usage(fs, "-collective: %v", err)
	}
	if err := sourceFlagsFit(fs, coll, *sources); err != nil {
		return err
	}
	levels, err := intList(fs, "conc", *conc)
	if err != nil {
		return err
	}
	switch {
	case len(levels) == 0 || slices.Min(levels) <= 0:
		return usage(fs, "-conc wants positive comma-separated worker counts, got %q", *conc)
	case *requests <= 0:
		return usage(fs, "-requests must be positive, got %d", *requests)
	case isSet(fs, "rate") && isSet(fs, "conc"):
		return usage(fs, "-rate (open loop) and -conc (closed loop) are mutually exclusive")
	case isSet(fs, "duration") && !isSet(fs, "rate"):
		return usage(fs, "-duration applies to open-loop runs only (set -rate)")
	}
	req := daemon.BroadcastRequest{
		Engine:     *engine,
		Topology:   "paragon",
		Rows:       *rows,
		Cols:       *cols,
		Collective: *collective,
		Algorithm:  *alg,
		MsgBytes:   *msgBytes,
		Tenant:     *tenant,
	}
	srcDesc := "all-ranks"
	if coll.Caps().TakesSources {
		if coll.Caps().SingleSource {
			*sources = 1
		}
		req.Distribution = *distName
		req.Sources = *sources
		srcDesc = fmt.Sprintf("%s s=%d", *distName, *sources)
	}
	fmt.Fprintf(out, "load generator: %s %s %dx%d %s/%s %s %d B\n",
		*engine, req.Topology, *rows, *cols, coll, *alg, srcDesc, *msgBytes)

	server, base := *addr, *addr
	if *addr == "" {
		var stop func()
		if base, stop, err = serveDaemon(); err != nil {
			return err
		}
		defer stop()
		server = "pooled (in-process)"
	} else if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
		server = base
	}

	fmt.Fprintf(out, "→ %s\n", server)
	specs := []loadSpec{{BaseURL: base, Request: req, Rate: *rate, Duration: *duration}}
	if *rate <= 0 {
		specs = specs[:0]
		for _, c := range levels {
			specs = append(specs, loadSpec{BaseURL: base, Request: req, Concurrency: c, Requests: *requests})
		}
	}
	var reports []*loadReport
	for _, spec := range specs {
		rep, err := runLoad(spec)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
		reports = append(reports, rep)
	}
	if *outFile == "" {
		return nil
	}
	doc := struct {
		Workload daemon.BroadcastRequest `json:"workload"`
		Server   string                  `json:"server"`
		Reports  []*loadReport           `json:"reports"`
	}{Workload: req, Server: server, Reports: reports}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outFile, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *outFile)
	return nil
}

// serveDaemon starts an in-process daemon on a loopback port and
// returns its base URL and a stop that returns once the server
// goroutine has exited and the pool is closed.
func serveDaemon() (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := daemon.New(daemon.Options{})
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns ErrServerClosed once stop closes hs
	}()
	stop := func() {
		hs.Close()
		<-served
		srv.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}
