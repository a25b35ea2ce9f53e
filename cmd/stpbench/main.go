// Command stpbench regenerates the tables and figures of the paper's
// evaluation section on the simulated Paragon and T3D, and runs the
// chaos harness over the real-byte engines.
//
// Usage:
//
//	stpbench -list               # list every experiment
//	stpbench -fig fig3           # print one figure's series
//	stpbench -fig all            # print everything (EXPERIMENTS.md input)
//	stpbench -fig fig6 -csv      # machine-readable output
//	stpbench -chaos              # fault-injection sweep over both engines
//	stpbench -chaos -seed 7 -engine tcp
//	stpbench -session -repeat 200 -engine tcp   # warm-session vs one-shot throughput
//	stpbench -session -engine tcp -pipeline 4   # 4 async runs in flight
//	stpbench -session -engine tcp -sparse       # route-planned sparse mesh
//	stpbench -daemon 127.0.0.1:7411 -conc 1,2,4,8 -requests 200 -engine tcp
//	stpbench -daemon 127.0.0.1:7411 -rate 50 -duration 10s -out daemon-load.json
//
// Flag combinations are validated up front: -list, -fig, -chaos,
// -session and -daemon are mutually exclusive modes, and every other
// flag belongs to exactly one of them (e.g. -repeat to -session, -seed
// to -chaos, -conc/-rate/-out to -daemon). A flag set outside its mode
// is a usage error (exit 2), never silently ignored.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	stpbcast "repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/dist"
	"repro/internal/viz"
)

func main() {
	// A cluster coordinator may have re-executed this binary as a
	// worker process (the figCluster experiment does); route such
	// copies into worker mode before anything else.
	stpbcast.MaybeClusterWorker()
	list := flag.Bool("list", false, "list the available experiments")
	fig := flag.String("fig", "", "experiment id to run (e.g. fig3), or 'all'")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table (with -fig)")
	plot := flag.Bool("plot", false, "render each curve as an ASCII bar chart (with -fig)")
	chaos := flag.Bool("chaos", false, "run the fault-injection sweep on the real-byte engines")
	seed := flag.Int64("seed", 1, "chaos schedule seed (same seed = same fault schedule; with -chaos)")
	engine := flag.String("engine", "", "engine: sim, live, tcp or both (with -chaos, -session or -daemon)")
	parallel := flag.Int("parallel", 0, "max concurrent experiment cells (0 = GOMAXPROCS, 1 = serial); output is identical at every setting")
	session := flag.Bool("session", false, "time -repeat back-to-back broadcasts over one warm Session vs the one-shot path")
	repeat := flag.Int("repeat", 100, "broadcast count (with -session)")
	pipeline := flag.Int("pipeline", 0, "submit session broadcasts via RunAsync with this many in flight, 0 = synchronous (with -session)")
	sparse := flag.Bool("sparse", false, "open the TCP session over the route-planned sparse mesh instead of the full mesh (with -session)")
	daemonAddr := flag.String("daemon", "", "load-generate against a running stpbcastd at this address")
	conc := flag.String("conc", "8", "closed-loop worker counts, comma-separated sweep (with -daemon)")
	requests := flag.Int("requests", 200, "closed-loop requests per concurrency level (with -daemon)")
	rate := flag.Float64("rate", 0, "open-loop arrivals per second; 0 = closed loop (with -daemon)")
	duration := flag.Duration("duration", 5*time.Second, "open-loop duration (with -daemon -rate)")
	rows := flag.Int("rows", 4, "daemon workload mesh rows (with -daemon)")
	cols := flag.Int("cols", 4, "daemon workload mesh cols (with -daemon)")
	collective := flag.String("collective", "", "daemon workload collective pattern, absent = Broadcast (with -daemon)")
	alg := flag.String("alg", "Br_Lin", "daemon workload algorithm (with -daemon)")
	dist := flag.String("dist", "E", "daemon workload source distribution (with -daemon)")
	sources := flag.Int("s", 4, "daemon workload source count (with -daemon)")
	msgBytes := flag.Int("bytes", 1024, "daemon workload per-source message bytes (with -daemon)")
	tenant := flag.String("tenant", "stpbench", "daemon workload tenant name (with -daemon)")
	out := flag.String("out", "", "write the load reports as JSON to this file (with -daemon)")
	flag.Parse()

	if err := validateFlags(); err != nil {
		fmt.Fprintln(os.Stderr, "stpbench:", err)
		fmt.Fprintln(os.Stderr)
		flag.Usage()
		os.Exit(2)
	}

	stpbcast.SetParallelism(*parallel)

	switch {
	case *daemonAddr != "":
		if err := runDaemonLoad(*daemonAddr, *engine, *conc, *requests, *rate, *duration,
			*rows, *cols, *collective, *alg, *dist, *sources, *msgBytes, *tenant, *out); err != nil {
			fatal(err)
		}
	case *session:
		if err := runSession(orBoth(*engine), *repeat, *pipeline, *sparse); err != nil {
			fatal(err)
		}
	case *chaos:
		if err := runChaos(*seed, orBoth(*engine)); err != nil {
			fatal(err)
		}
	case *list:
		for _, e := range stpbcast.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
	case *fig == "all":
		for _, e := range stpbcast.Experiments() {
			if err := runOne(e, *csv, *plot); err != nil {
				fatal(err)
			}
		}
	case *fig != "":
		e, err := stpbcast.ExperimentByID(*fig)
		if err != nil {
			fatal(err)
		}
		if err := runOne(e, *csv, *plot); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// orBoth maps the unset -engine to the historical "both" default of the
// chaos and session modes.
func orBoth(engine string) string {
	if engine == "" {
		return "both"
	}
	return engine
}

// flagModes maps every mode-specific flag to the single mode it belongs
// to. Flags absent here (-parallel) are global.
var flagModes = map[string]string{
	"fig": "-fig", "csv": "-fig", "plot": "-fig",
	"chaos": "-chaos", "seed": "-chaos",
	"session": "-session", "repeat": "-session", "pipeline": "-session", "sparse": "-session",
	"list":   "-list",
	"daemon": "-daemon", "conc": "-daemon", "requests": "-daemon", "rate": "-daemon",
	"duration": "-daemon", "rows": "-daemon", "cols": "-daemon", "collective": "-daemon",
	"alg": "-daemon", "dist": "-daemon", "s": "-daemon", "bytes": "-daemon",
	"tenant": "-daemon", "out": "-daemon",
}

// engineModes lists the modes -engine applies to, with the values each
// accepts.
var engineValues = map[string]map[string]bool{
	"-chaos":   {"live": true, "tcp": true, "both": true},
	"-session": {"sim": true, "live": true, "tcp": true, "both": true},
	"-daemon":  {"sim": true, "live": true, "tcp": true},
}

// validateFlags rejects contradictory flag combinations up front with a
// usage error instead of panicking or silently ignoring flags.
func validateFlags() error {
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// Exactly one mode may be requested.
	mode := ""
	for _, m := range []struct{ flag, mode string }{
		{"list", "-list"}, {"fig", "-fig"}, {"chaos", "-chaos"},
		{"session", "-session"}, {"daemon", "-daemon"},
	} {
		if !set[m.flag] {
			continue
		}
		if mode != "" {
			return fmt.Errorf("%s and %s are mutually exclusive modes", mode, m.mode)
		}
		mode = m.mode
	}

	// Mode-specific flags must not leak into other modes.
	for name := range set {
		owner, owned := flagModes[name]
		if owned && owner != mode {
			if mode == "" {
				return fmt.Errorf("-%s requires %s mode", name, owner)
			}
			return fmt.Errorf("-%s belongs to %s mode, not %s", name, owner, mode)
		}
	}
	if set["engine"] {
		accepted, ok := engineValues[mode]
		if !ok {
			return fmt.Errorf("-engine applies to -chaos, -session and -daemon modes only")
		}
		val := flag.Lookup("engine").Value.String()
		if !accepted[val] {
			keys := make([]string, 0, len(accepted))
			for k := range accepted {
				keys = append(keys, k)
			}
			return fmt.Errorf("-engine %q invalid for %s mode (want one of %s)", val, mode, strings.Join(keys, ", "))
		}
	}

	// Value sanity per mode.
	switch mode {
	case "-session":
		if n := intFlag("repeat"); n <= 0 {
			return fmt.Errorf("-repeat must be positive, got %d", n)
		}
		if n := intFlag("pipeline"); n < 0 {
			return fmt.Errorf("-pipeline must be non-negative, got %d", n)
		}
		// -sparse shapes the TCP mesh only; under any other engine
		// (including the default "both" sweep) it would be silently
		// ignored for part or all of the comparison.
		if set["sparse"] && orBoth(flag.Lookup("engine").Value.String()) != "tcp" {
			return fmt.Errorf("-sparse is TCP-only; pass -engine tcp alongside it")
		}
	case "-daemon":
		coll, err := stpbcast.ParseCollective(flag.Lookup("collective").Value.String())
		if err != nil {
			return fmt.Errorf("-collective: %w", err)
		}
		if !coll.Caps().TakesSources {
			// Sourceless collectives take no -dist/-s: an explicit value
			// is a usage error, never silently ignored.
			for _, name := range []string{"dist", "s"} {
				if set[name] {
					return fmt.Errorf("-%s: %s takes no source set (every rank contributes)", name, coll)
				}
			}
		} else if coll.Caps().SingleSource && set["s"] && intFlag("s") != 1 {
			return fmt.Errorf("-s: %s takes a single root, got %d", coll, intFlag("s"))
		}
		if n := intFlag("requests"); n <= 0 {
			return fmt.Errorf("-requests must be positive, got %d", n)
		}
		if _, err := parseConcSweep(flag.Lookup("conc").Value.String()); err != nil {
			return err
		}
		if set["rate"] && set["conc"] {
			return fmt.Errorf("-rate (open loop) and -conc (closed loop) are mutually exclusive")
		}
		if set["duration"] && !set["rate"] {
			return fmt.Errorf("-duration applies to open-loop runs only (set -rate)")
		}
	case "-fig":
		if set["csv"] && set["plot"] {
			return fmt.Errorf("-csv and -plot are mutually exclusive")
		}
	}
	return nil
}

// intFlag reads a registered int flag's current value.
func intFlag(name string) int {
	g, ok := flag.Lookup(name).Value.(flag.Getter)
	if !ok {
		return 0
	}
	n, _ := g.Get().(int)
	return n
}

// parseConcSweep parses "1,2,4,8" into worker counts.
func parseConcSweep(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(part, "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("-conc wants positive comma-separated worker counts, got %q", s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-conc wants at least one worker count, got %q", s)
	}
	return out, nil
}

func runOne(e stpbcast.Experiment, csv, plot bool) error {
	s, err := e.Run()
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Printf("== %s == %s\n", e.ID, e.Title)
	fmt.Printf("paper: %s\n", e.Paper)
	switch {
	case csv:
		printCSV(s)
	case plot:
		for _, curve := range s.Order {
			vals := make([]float64, len(s.XLabels))
			for i := range s.XLabels {
				vals[i] = s.Get(curve, i)
			}
			fmt.Print(viz.SeriesChart(curve+" ["+s.YAxis+"]", s.XLabels, vals, 50))
		}
	default:
		fmt.Print(s.Format())
	}
	fmt.Println()
	return nil
}

func printCSV(s *stpbcast.Series) {
	fmt.Printf("%s,%s\n", s.XAxis, strings.Join(s.Order, ","))
	for i, x := range s.XLabels {
		row := []string{x}
		for _, name := range s.Order {
			row = append(row, fmt.Sprintf("%.4f", s.Get(name, i)))
		}
		fmt.Println(strings.Join(row, ","))
	}
}

// runSession times n back-to-back 1 KiB broadcasts on a 4×4 mesh twice:
// once paying full engine setup per broadcast (the one-shot Run),
// once over a single warm Session — and prints both rates, the
// speedup and the session's aggregate stats. pipeline > 0 drives the
// session loop through RunAsync with that many broadcasts in flight;
// sparse opens the session over the route-planned link set
// (stpbcast.RoutesFor) instead of the full O(p²) mesh.
func runSession(engine string, n, pipeline int, sparse bool) error {
	if n <= 0 {
		return fmt.Errorf("-repeat must be positive, got %d", n)
	}
	engines := []stpbcast.Engine{stpbcast.EngineLive, stpbcast.EngineTCP}
	switch engine {
	case "both":
	case "sim":
		engines = []stpbcast.Engine{stpbcast.EngineSim}
	case "live":
		engines = []stpbcast.Engine{stpbcast.EngineLive}
	case "tcp":
		engines = []stpbcast.Engine{stpbcast.EngineTCP}
	default:
		return fmt.Errorf("unknown engine %q (want sim, live, tcp or both)", engine)
	}
	m := stpbcast.NewParagon(4, 4)
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: 1024}
	opts := stpbcast.RunOptions{RecvTimeout: 30 * time.Second}
	var links [][2]int
	if sparse {
		var err error
		if links, err = stpbcast.RoutesFor(m, cfg); err != nil {
			return fmt.Errorf("route extraction: %w", err)
		}
	}
	fmt.Printf("session demo: %d × %d B Br_Lin broadcasts, 4×4 mesh, E s=%d", n, cfg.MsgBytes, cfg.Sources)
	if pipeline > 0 {
		fmt.Printf(", %d in flight", pipeline)
	}
	if sparse {
		fmt.Printf(", sparse mesh (%d planned links)", len(links))
	}
	fmt.Println()
	for _, eng := range engines {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := stpbcast.Run(m, eng, cfg, opts); err != nil {
				return fmt.Errorf("%s one-shot run %d: %w", eng, i, err)
			}
		}
		oneShot := time.Since(start)

		start = time.Now()
		s, err := stpbcast.Open(m, eng, stpbcast.SessionOptions{Links: links})
		if err != nil {
			return fmt.Errorf("%s open: %w", eng, err)
		}
		if err := sessionLoop(s, cfg, opts, n, pipeline); err != nil {
			s.Close()
			return fmt.Errorf("%s session: %w", eng, err)
		}
		stats, err := s.Close()
		if err != nil {
			return fmt.Errorf("%s close: %w", eng, err)
		}
		warm := time.Since(start)

		osRate := float64(n) / oneShot.Seconds()
		wRate := float64(n) / warm.Seconds()
		fmt.Printf("%-5s one-shot %8.1f bcasts/s   session %8.1f bcasts/s   speedup %5.2fx   (runs %d, %d B sent, %d reconnects)\n",
			eng, osRate, wRate, wRate/osRate, stats.Runs, stats.Bytes, stats.Reconnects)
	}
	return nil
}

// sessionLoop drives n broadcasts through the warm session: plain Run
// when pipeline is 0, otherwise RunAsync with up to pipeline futures
// submitted ahead of the oldest unresolved one.
func sessionLoop(s *stpbcast.Session, cfg stpbcast.Config, opts stpbcast.RunOptions, n, pipeline int) error {
	if pipeline <= 0 {
		for i := 0; i < n; i++ {
			if _, err := s.Run(cfg, opts); err != nil {
				return fmt.Errorf("run %d: %w", i, err)
			}
		}
		return nil
	}
	inflight := make([]*stpbcast.Future, 0, pipeline)
	for i := 0; i < n; i++ {
		fut, err := s.RunAsync(cfg, opts)
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		inflight = append(inflight, fut)
		if len(inflight) == pipeline {
			if _, err := inflight[0].Wait(); err != nil {
				return fmt.Errorf("async run: %w", err)
			}
			inflight = append(inflight[:0], inflight[1:]...)
		}
	}
	for _, fut := range inflight {
		if _, err := fut.Wait(); err != nil {
			return fmt.Errorf("async run: %w", err)
		}
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
func runChaos(seed int64, engine string) error {
	engines := []stpbcast.Engine{stpbcast.EngineLive, stpbcast.EngineTCP}
	switch engine {
	case "both":
	case "live":
		engines = []stpbcast.Engine{stpbcast.EngineLive}
	case "tcp":
		engines = []stpbcast.Engine{stpbcast.EngineTCP}
	default:
		return fmt.Errorf("unknown engine %q (want live, tcp or both)", engine)
	}
	m := stpbcast.NewParagon(3, 4)
	sources, err := dist.Cross().Sources(m.Rows, m.Cols, 5)
	if err != nil {
		return err
	}
	spec := core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: sources}
	fmt.Printf("chaos sweep: seed %d, 3x4 mesh, 5 Cr sources\n", seed)
	fmt.Printf("%-22s %-5s %-10s %-8s %s\n", "algorithm", "eng", "scenario", "faults", "outcome")
	failures := 0
	for _, alg := range stpbcast.Algorithms() {
		cfg := stpbcast.Config{Algorithm: alg.Name(), Distribution: "Cr", Sources: 5, MsgBytes: chaosBytes}
		for _, eng := range engines {
			for _, sc := range chaosScenarios {
				plan := sc.plan(seed)
				res, err := stpbcast.Run(m, eng, cfg, stpbcast.RunOptions{
					RecvTimeout: 2 * time.Second,
					RunTimeout:  60 * time.Second,
					Faults:      &plan,
				})
				outcome, bad := chaosOutcome(sc, spec, res, err)
				nfaults := "-"
				if res != nil {
					nfaults = fmt.Sprintf("%d", len(res.Faults))
				}
				fmt.Printf("%-22s %-5s %-10s %-8s %s\n", alg.Name(), eng, sc.name, nfaults, outcome)
				if bad {
					failures++
				}
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d chaos run(s) violated the degrade-or-abort invariant", failures)
	}
	fmt.Println("all chaos runs degraded gracefully or aborted with a diagnostic")
	return nil
}

// chaosBytes is the length of every source's default payload in the
// chaos sweep.
const chaosBytes = 16

// chaosOutcome classifies one chaos run of spec against its scenario's
// invariant and reports whether it violated it. A graceful run's bundles
// must pass the broadcast postcondition (core.Collective.Check).
func chaosOutcome(sc chaosScenario, spec core.Spec, res *stpbcast.Result, err error) (string, bool) {
	if sc.wantErr == "" {
		if err != nil {
			return fmt.Sprintf("FAIL: graceful plan aborted: %v", err), true
		}
		for rank, got := range res.Bundles {
			var bundle comm.Message
			for origin, data := range got {
				bundle.Parts = append(bundle.Parts, comm.Part{Origin: origin, Data: data})
			}
			if err := core.Broadcast.Check(spec, func(int) int { return chaosBytes }, rank, bundle); err != nil {
				return "FAIL: " + err.Error(), true
			}
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
	return "ok (clean abort: " + firstLine(err.Error()) + ")", false
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// runDaemonLoad hammers a running stpbcastd with the configured
// workload — a closed-loop concurrency sweep by default, a fixed-rate
// open loop with -rate — and reports req/s plus p50/p95/p99 latency per
// level. With -out, the reports are also written as JSON.
func runDaemonLoad(addr, engine, concList string, requests int, rate float64, duration time.Duration,
	rows, cols int, collective, alg, dist string, sources, msgBytes int, tenant, out string) error {
	if engine == "" {
		engine = "tcp"
	}
	base := addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	coll, err := stpbcast.ParseCollective(collective)
	if err != nil {
		return err
	}
	req := daemon.BroadcastRequest{
		Engine:     engine,
		Topology:   "paragon",
		Rows:       rows,
		Cols:       cols,
		Collective: collective,
		Algorithm:  alg,
		MsgBytes:   msgBytes,
		Tenant:     tenant,
	}
	srcDesc := "all-ranks"
	if coll.Caps().TakesSources {
		if coll.Caps().SingleSource {
			sources = 1
		}
		req.Distribution = dist
		req.Sources = sources
		srcDesc = fmt.Sprintf("%s s=%d", dist, sources)
	}
	fmt.Printf("load generator: %s %s %dx%d %s/%s %s %d B → %s\n",
		engine, req.Topology, rows, cols, coll, alg, srcDesc, msgBytes, base)

	var reports []*daemon.LoadReport
	if rate > 0 {
		r, err := daemon.RunLoad(daemon.LoadSpec{
			BaseURL: base, Request: req, Rate: rate, Duration: duration,
		})
		if err != nil {
			return err
		}
		fmt.Println(r)
		reports = append(reports, r)
	} else {
		levels, err := parseConcSweep(concList)
		if err != nil {
			return err
		}
		for _, conc := range levels {
			r, err := daemon.RunLoad(daemon.LoadSpec{
				BaseURL: base, Request: req, Concurrency: conc, Requests: requests,
			})
			if err != nil {
				return err
			}
			fmt.Println(r)
			reports = append(reports, r)
		}
	}
	if out != "" {
		doc := struct {
			Workload daemon.BroadcastRequest `json:"workload"`
			Reports  []*daemon.LoadReport    `json:"reports"`
		}{Workload: req, Reports: reports}
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d report(s))\n", out, len(reports))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stpbench:", err)
	os.Exit(1)
}
