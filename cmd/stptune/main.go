// Command stptune drives the algorithm planner (internal/plan): it plans
// single instances and sweeps grids with a chosen-vs-best table. Its
// measure subcommand is the planner-free sweep: any set of algorithms and
// distributions, source counts and message lengths on any machine, one CSV
// row of simulated time and the paper's parameters per cell.
//
// Usage:
//
//	stptune plan    -machine paragon -rows 10 -cols 10 -dist E -s 30 -bytes 4096
//	stptune plan    -machine t3d -p 64 -collective AllToAll -bytes 64
//	stptune sweep   -machine t3d -p 256 -dists E,Cr -s 10,64 -bytes 1024,16384
//	stptune measure -machine paragon -rows 16 -cols 16 -algs Br_Lin,Repos_xy_source -dists E,Cr -s 16,32,64,128 -bytes 4096
//
// The sweep table reports, per cell, the planner's choice and the best
// fixed algorithm with their simulated times; ratio 1.00 means the
// planner matched the optimum. The planner's memo lives for one stptune
// run: a cell whose key matches an earlier cell's (the same L bucket,
// say) answers from it. The trailing counter line shows cache
// hits/misses and probe runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	stpbcast "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/plan"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "plan":
		runPlan(args)
	case "sweep":
		runSweep(args)
	case "measure":
		runMeasure(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: stptune {plan|sweep|measure} [flags]")
	os.Exit(2)
}

// machineFlags are the machine knobs every subcommand takes.
type machineFlags struct {
	fs      *flag.FlagSet
	machine *string
	rows    *int
	cols    *int
	p       *int
	dim     *int
	seed    *int64
}

// commonFlags add the planner knobs of the planning subcommands.
type commonFlags struct {
	*machineFlags
	parallel *int
}

func newMachineFlags(name string) *machineFlags {
	fs := flag.NewFlagSet("stptune "+name, flag.ExitOnError)
	return &machineFlags{
		fs:      fs,
		machine: fs.String("machine", "paragon", "paragon | paragon-mpi | t3d | t3d-random | hypercube"),
		rows:    fs.Int("rows", 10, "mesh rows (paragon)"),
		cols:    fs.Int("cols", 10, "mesh columns (paragon)"),
		p:       fs.Int("p", 128, "processors (t3d)"),
		dim:     fs.Int("dim", 6, "dimension (hypercube)"),
		seed:    fs.Int64("seed", 1, "placement seed (t3d-random)"),
	}
}

func newCommonFlags(name string) *commonFlags {
	m := newMachineFlags(name)
	return &commonFlags{
		machineFlags: m,
		parallel:     m.fs.Int("parallel", 0, "max concurrent probe simulations (0 = GOMAXPROCS, 1 = serial); decisions are identical at every setting"),
	}
}

func (c *machineFlags) machineFor() (*machine.Machine, error) {
	switch *c.machine {
	case "paragon":
		return machine.Paragon(*c.rows, *c.cols), nil
	case "paragon-mpi":
		return machine.ParagonMPI(*c.rows, *c.cols), nil
	case "t3d":
		return machine.T3D(*c.p), nil
	case "t3d-random":
		return machine.T3DRandom(*c.p, *c.seed), nil
	case "hypercube":
		return machine.HypercubeNX(*c.dim), nil
	}
	return nil, fmt.Errorf("unknown machine %q", *c.machine)
}

func (c *commonFlags) planner() *plan.Planner {
	par.SetLimit(*c.parallel)
	return plan.New(plan.Options{Cache: plan.NewMemCache(0)})
}

func runPlan(args []string) {
	c := newCommonFlags("plan")
	collFlag := c.fs.String("collective", "", "collective pattern: Broadcast (the default), Reduce, AllReduce, Scatter, AllGather or AllToAll")
	distName := c.fs.String("dist", "E", "distribution name (source-taking collectives only)")
	s := c.fs.Int("s", 16, "source count (source-taking collectives only)")
	bytes := c.fs.Int("bytes", 4096, "message length (per-destination chunk for chunked collectives)")
	c.fs.Parse(args)
	coll, err := core.ParseCollective(*collFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stptune plan: -collective:", err)
		os.Exit(2)
	}
	// Source flags only make sense for collectives that take a source
	// set; an explicit -dist/-s on the others is a usage error, never
	// silently ignored. Scatter takes exactly one root.
	distSet := false
	c.fs.Visit(func(f *flag.Flag) {
		if f.Name != "dist" && f.Name != "s" {
			return
		}
		if !coll.Caps().TakesSources {
			fmt.Fprintf(os.Stderr, "stptune plan: -%s: %s takes no source set (every rank contributes)\n", f.Name, coll)
			os.Exit(2)
		}
		if f.Name == "dist" {
			distSet = true
		}
		if f.Name == "s" && coll.Caps().SingleSource && *s != 1 {
			fmt.Fprintf(os.Stderr, "stptune plan: -s: %s takes a single root, got %d\n", coll, *s)
			os.Exit(2)
		}
	})
	m, err := c.machineFor()
	if err != nil {
		fatal(err)
	}
	pl := c.planner()
	var spec core.Spec
	dn := ""
	switch {
	case !coll.Caps().TakesSources:
		spec = core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: core.AllRanksSources(m.P())}
	case coll.Caps().SingleSource && !distSet:
		spec = core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: []int{0}}
	default:
		sv := *s
		if coll.Caps().SingleSource {
			sv = 1
		}
		d, err := dist.ByName(*distName)
		if err != nil {
			fatal(err)
		}
		spec, err = bench.SpecFor(m, d, sv)
		if err != nil {
			fatal(err)
		}
		dn = *distName
	}
	dec, err := pl.Decide(context.Background(), m, plan.Request{Spec: spec, Collective: coll, MsgLen: *bytes, DistName: dn})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("machine    %s\n", m.Name)
	fmt.Printf("collective %s\n", coll)
	fmt.Printf("key        %s\n", dec.Key.String())
	fmt.Printf("chosen     %s (%.4f ms, via %s)\n", dec.Algorithm, dec.ElapsedMs, dec.Source)
	if len(dec.Ranking) > 0 {
		fmt.Println("analytic ranking (predicted ms):")
		for i, sc := range dec.Ranking {
			fmt.Printf("  %2d. %-18s %10.4f\n", i+1, sc.Algorithm, sc.PredictedMs)
		}
	}
	if len(dec.Probes) > 0 {
		fmt.Println("probes (simulated ms):")
		for _, pr := range dec.Probes {
			fmt.Printf("      %-18s %10.4f\n", pr.Algorithm, pr.ElapsedMs)
		}
	}
}

// sweepGrid plans every (distribution, s, L) cell and simulates every
// registered algorithm to report the true best and the chosen/best ratio.
func sweepGrid(c *commonFlags, distsFlag, sFlag, bytesFlag string) {
	m, err := c.machineFor()
	if err != nil {
		fatal(err)
	}
	pl := c.planner()
	dists := splitList(distsFlag)
	ss, err := splitInts(sFlag)
	if err != nil {
		fatal(err)
	}
	ls, err := splitInts(bytesFlag)
	if err != nil {
		fatal(err)
	}
	fmt.Println("machine,distribution,sources,msg_bytes,chosen,chosen_ms,best,best_ms,ratio,source")
	for _, dn := range dists {
		d, err := dist.ByName(dn)
		if err != nil {
			fatal(err)
		}
		for _, s := range ss {
			for _, l := range ls {
				spec, err := bench.SpecFor(m, d, s)
				if err != nil {
					fatal(err)
				}
				dec, err := pl.Decide(context.Background(), m, plan.Request{Spec: spec, MsgLen: l, DistName: dn})
				if err != nil {
					fatal(err)
				}
				bestName, bestMs := "", math.Inf(1)
				for _, a := range core.Registry() {
					v, err := bench.MustMillis(m, a, spec, l)
					if err != nil {
						fatal(err)
					}
					if v < bestMs {
						bestName, bestMs = a.Name(), v
					}
				}
				fmt.Printf("%s,%s,%d,%d,%s,%.4f,%s,%.4f,%.3f,%s\n",
					m.Name, dn, s, l, dec.Algorithm, dec.ElapsedMs, bestName, bestMs, dec.ElapsedMs/bestMs, dec.Source)
			}
		}
	}
	printCounters()
}

func runSweep(args []string) {
	c := newCommonFlags("sweep")
	dists := c.fs.String("dists", "R,C,E,Dr,Dl,B,Cr,Sq", "comma-separated distribution names")
	sFlag := c.fs.String("s", "10,64", "comma-separated source counts")
	bytesFlag := c.fs.String("bytes", "1024,16384", "comma-separated message lengths")
	c.fs.Parse(args)
	sweepGrid(c, *dists, *sFlag, *bytesFlag)
}

// runMeasure simulates every (algorithm, distribution, s, L) cell and
// prints one CSV row per cell: no planner, no cache. Cells fan out across
// the bounded worker pool; rows are buffered by index so the CSV comes out
// in the same order as a serial sweep.
func runMeasure(args []string) {
	c := newMachineFlags("measure")
	algsFlag := c.fs.String("algs", "Br_Lin", "comma-separated algorithm names")
	distsFlag := c.fs.String("dists", "E", "comma-separated distribution names")
	sFlag := c.fs.String("s", "16", "comma-separated source counts")
	bytesFlag := c.fs.String("bytes", "4096", "comma-separated message lengths")
	parallel := c.fs.Int("parallel", 0, "max concurrent sweep cells (0 = GOMAXPROCS, 1 = serial); row order is identical at every setting")
	c.fs.Parse(args)
	par.SetLimit(*parallel)
	m, err := c.machineFor()
	if err != nil {
		fatal(err)
	}
	ss, err := splitInts(*sFlag)
	if err != nil {
		fatal(err)
	}
	ls, err := splitInts(*bytesFlag)
	if err != nil {
		fatal(err)
	}
	var cells []stpbcast.Config
	for _, alg := range splitList(*algsFlag) {
		for _, d := range splitList(*distsFlag) {
			for _, s := range ss {
				for _, l := range ls {
					cells = append(cells, stpbcast.Config{Algorithm: alg, Distribution: d, Sources: s, MsgBytes: l})
				}
			}
		}
	}
	out := make([]string, len(cells))
	if err := par.ForEach(len(cells), func(i int) error {
		cfg := cells[i]
		res, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{})
		if err != nil {
			return err
		}
		pm := res.Params
		out[i] = fmt.Sprintf("%s,%s,%s,%d,%d,%.4f,%d,%d,%d,%.0f,%.1f",
			m.Name, cfg.Algorithm, cfg.Distribution, cfg.Sources, cfg.MsgBytes,
			float64(res.Elapsed.Nanoseconds())/1e6,
			pm.Congestion, pm.Wait, pm.SendRec, pm.AvgMsgLen, pm.AvgActive)
		return nil
	}); err != nil {
		fatal(err)
	}
	fmt.Println("machine,algorithm,distribution,sources,msg_bytes,time_ms,congestion,wait,send_rec,av_msg_lgth,av_act_proc")
	for _, row := range out {
		fmt.Println(row)
	}
}

func printCounters() {
	hits := metrics.GetCounter(plan.CounterCacheHits).Value()
	misses := metrics.GetCounter(plan.CounterCacheMisses).Value()
	probes := metrics.GetCounter(plan.CounterProbes).Value()
	fmt.Fprintf(os.Stderr, "stptune: cache hits %d, misses %d, probe runs %d\n", hits, misses, probes)
}

func splitList(v string) []string {
	var out []string
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func splitInts(v string) ([]int, error) {
	var out []int
	for _, part := range splitList(v) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("stptune: bad integer %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stptune:", err)
	os.Exit(1)
}
