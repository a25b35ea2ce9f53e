package main

import (
	"flag"
	"fmt"
	"io"
	"math"

	stpbcast "repro"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/plan"
)

// parallelFlag registers -parallel, which sizes the process-wide worker
// pool (stpbcast.SetParallelism) behind sweep cells and planner probes.
func parallelFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial); output is identical at every setting")
}

// gridFlags registers -dists, -s and -bytes, the comma-separated axes of
// a sweep, with the given defaults, and returns the function that
// resolves them after parse; an unknown name or a malformed integer is a
// usage error.
func gridFlags(fs *flag.FlagSet, dists, s, bytes string) func() ([]stpbcast.Distribution, []int, []int, error) {
	distsFlag := fs.String("dists", dists, "comma-separated distribution names")
	sFlag := fs.String("s", s, "comma-separated source counts")
	bytesFlag := fs.String("bytes", bytes, "comma-separated message lengths")
	return func() ([]stpbcast.Distribution, []int, []int, error) {
		var ds []stpbcast.Distribution
		for _, name := range splitList(*distsFlag) {
			d, err := stpbcast.DistributionByName(name)
			if err != nil {
				return nil, nil, nil, usage(fs, "-dists: %v", err)
			}
			ds = append(ds, d)
		}
		ss, err := intList(fs, "s", *sFlag)
		if err != nil {
			return nil, nil, nil, err
		}
		ls, err := intList(fs, "bytes", *bytesFlag)
		return ds, ss, ls, err
	}
}

// runPlan plans one instance the way Config.Algorithm "Auto" would
// (stpbcast.Plan) and prints the key, the choice, the analytic ranking
// (Broadcast only) and the probes behind it.
func runPlan(fs *flag.FlagSet, args []string, out io.Writer) error {
	machineOf := machineFlags(fs)
	parallel := parallelFlag(fs)
	collective := fs.String("collective", "", "collective pattern: Broadcast (the default), Reduce, AllReduce, Scatter, AllGather or AllToAll")
	distName := fs.String("dist", "E", "distribution name (source-taking collectives only)")
	s := fs.Int("s", 16, "source count (source-taking collectives only)")
	msgBytes := fs.Int("bytes", 4096, "message length (per-destination chunk for chunked collectives)")
	if err := parse(fs, args); err != nil {
		return err
	}
	coll, err := stpbcast.ParseCollective(*collective)
	if err != nil {
		return usage(fs, "-collective: %v", err)
	}
	if err := sourceFlagsFit(fs, coll, *s); err != nil {
		return err
	}
	if _, err := stpbcast.DistributionByName(*distName); err != nil {
		return usage(fs, "-dist: %v", err)
	}
	m, err := machineOf()
	if err != nil {
		return err
	}
	stpbcast.SetParallelism(*parallel)
	// A sourceless collective plans for every rank and Scatter for root 0
	// unless -dist places it; the others default to E(16).
	cfg := stpbcast.Config{Collective: coll, MsgBytes: *msgBytes}
	switch {
	case coll.Caps().SingleSource && isSet(fs, "dist"):
		cfg.Distribution, cfg.Sources = *distName, 1
	case coll.Caps().TakesSources && !coll.Caps().SingleSource:
		cfg.Distribution, cfg.Sources = *distName, *s
	}
	dec, err := stpbcast.Plan(m, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "machine    %s\n", m.Name)
	fmt.Fprintf(out, "collective %s\n", coll)
	fmt.Fprintf(out, "key        %s\n", dec.Key.String())
	fmt.Fprintf(out, "chosen     %s (%.4f ms, via %s)\n", dec.Algorithm, dec.ElapsedMs, dec.Source)
	if len(dec.Ranking) > 0 {
		fmt.Fprintln(out, "analytic ranking (predicted ms):")
		for i, sc := range dec.Ranking {
			fmt.Fprintf(out, "  %2d. %-18s %10.4f\n", i+1, sc.Algorithm, sc.PredictedMs)
		}
	}
	if len(dec.Probes) > 0 {
		fmt.Fprintln(out, "probes (simulated ms):")
		for _, pr := range dec.Probes {
			fmt.Fprintf(out, "      %-18s %10.4f\n", pr.Algorithm, pr.ElapsedMs)
		}
	}
	return nil
}

// runSweep plans every (distribution, s, L) broadcast cell and simulates
// every registered broadcast to report the true best and the chosen/best
// ratio; 1.00 means the planner matched the optimum. The planner's memo
// lives for the run, so a cell whose key matches an earlier cell's
// answers from it; the cache and probe counters go to stderr.
func runSweep(fs *flag.FlagSet, args []string, out io.Writer) error {
	machineOf := machineFlags(fs)
	parallel := parallelFlag(fs)
	grid := gridFlags(fs, "R,C,E,Dr,Dl,B,Cr,Sq", "10,64", "1024,16384")
	if err := parse(fs, args); err != nil {
		return err
	}
	m, err := machineOf()
	if err != nil {
		return err
	}
	dists, ss, ls, err := grid()
	if err != nil {
		return err
	}
	stpbcast.SetParallelism(*parallel)
	fmt.Fprintln(out, "machine,distribution,sources,msg_bytes,chosen,chosen_ms,best,best_ms,ratio,source")
	for _, d := range dists {
		for _, s := range ss {
			for _, l := range ls {
				cfg := stpbcast.Config{Distribution: d.Name(), Sources: s, MsgBytes: l}
				dec, err := stpbcast.Plan(m, cfg)
				if err != nil {
					return err
				}
				best, bestMs := "", math.Inf(1)
				for _, a := range stpbcast.Algorithms() {
					cfg.Algorithm = a.Name()
					res, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{})
					if err != nil {
						return err
					}
					if v := float64(res.Elapsed.Nanoseconds()) / 1e6; v < bestMs {
						best, bestMs = a.Name(), v
					}
				}
				fmt.Fprintf(out, "%s,%s,%d,%d,%s,%.4f,%s,%.4f,%.3f,%s\n",
					m.Name, d.Name(), s, l, dec.Algorithm, dec.ElapsedMs, best, bestMs, dec.ElapsedMs/bestMs, dec.Source)
			}
		}
	}
	fmt.Fprintf(fs.Output(), "stpbench: cache hits %d, misses %d, probe runs %d\n",
		metrics.GetCounter(plan.CounterCacheHits).Value(),
		metrics.GetCounter(plan.CounterCacheMisses).Value(),
		metrics.GetCounter(plan.CounterProbes).Value())
	return nil
}

// runMeasure simulates every (algorithm, distribution, s, L) cell and
// prints one CSV row of simulated time and the paper's parameters per
// cell: no planner. Cells fan out across the worker pool; rows are
// buffered by index so the CSV comes out in the order of a serial sweep.
func runMeasure(fs *flag.FlagSet, args []string, out io.Writer) error {
	machineOf := machineFlags(fs)
	parallel := parallelFlag(fs)
	algsFlag := fs.String("algs", "Br_Lin", "comma-separated algorithm names")
	grid := gridFlags(fs, "E", "16", "4096")
	if err := parse(fs, args); err != nil {
		return err
	}
	m, err := machineOf()
	if err != nil {
		return err
	}
	algs := splitList(*algsFlag)
	for _, a := range algs {
		if _, err := stpbcast.AlgorithmByName(a); err != nil {
			return usage(fs, "-algs: %v", err)
		}
	}
	dists, ss, ls, err := grid()
	if err != nil {
		return err
	}
	stpbcast.SetParallelism(*parallel)
	var cells []stpbcast.Config
	for _, alg := range algs {
		for _, d := range dists {
			for _, s := range ss {
				for _, l := range ls {
					cells = append(cells, stpbcast.Config{Algorithm: alg, Distribution: d.Name(), Sources: s, MsgBytes: l})
				}
			}
		}
	}
	rows := make([]string, len(cells))
	if err := par.ForEach(len(cells), func(i int) error {
		cfg := cells[i]
		res, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{})
		if err != nil {
			return err
		}
		pm := res.Params
		rows[i] = fmt.Sprintf("%s,%s,%s,%d,%d,%.4f,%d,%d,%d,%.0f,%.1f",
			m.Name, cfg.Algorithm, cfg.Distribution, cfg.Sources, cfg.MsgBytes,
			float64(res.Elapsed.Nanoseconds())/1e6,
			pm.Congestion, pm.Wait, pm.SendRec, pm.AvgMsgLen, pm.AvgActive)
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintln(out, "machine,algorithm,distribution,sources,msg_bytes,time_ms,congestion,wait,send_rec,av_msg_lgth,av_act_proc")
	for _, row := range rows {
		fmt.Fprintln(out, row)
	}
	return nil
}
