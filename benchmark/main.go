// Command benchmark is the repository's end-to-end, layer-by-layer
// benchmark: seven workloads driven through the paths users take
// (Session.Run, stpbcastd over HTTP, a multi-process cluster session,
// figure regeneration, cold planning), every output verified, end-to-end
// metrics from untraced ops and per-layer metrics from a traced pass.
// BENCHMARK.json at the repository root describes it to the acceptance
// driver; README.md in this directory explains how to read the numbers.
//
// Usage (from the repository root):
//
//	go run ./benchmark                                  # all workloads, both passes
//	go run ./benchmark -workload plan_cold -trace 0     # one workload, one pass, result line last
//	go run ./benchmark -compare A.json B.json           # apply BENCHMARK.json's bounds
//	go run ./benchmark -update-golden                   # rewrite benchmark/golden/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	stpbcast "repro"
	"repro/internal/cluster"
)

// maybeWorker turns a re-executed copy of this binary into a cluster
// worker — cluster_p64's coordinator spawns them — and does not return
// then. The copy first arranges to report its heap counters on request.
func maybeWorker() {
	if dir := os.Getenv(heapDirEnv); dir != "" && os.Getenv(cluster.WorkerEnv) != "" {
		reportHeapOnSignal(dir)
	}
	stpbcast.MaybeClusterWorker()
}

func main() {
	maybeWorker()

	def := defaultOptions()
	workloadName := flag.String("workload", "", "run only this workload and print the driver's result line last (default: all seven, rounds interleaved)")
	seed := flag.Int64("seed", def.seed, "seed for payload bytes and the plan_cold instance order")
	seconds := flag.Float64("seconds", 0, "measured seconds per workload and pass (default 12.5 for a full run, 10 with -workload)")
	trace := flag.Int("trace", -1, "0: untraced pass only (end-to-end metrics); 1: traced pass only (per-layer metrics); default both, or 0 with -workload")
	compare := flag.Bool("compare", false, "compare two result files (or comma-separated sets of them): -compare A.json B.json")
	updateGolden := flag.Bool("update-golden", false, "run every workload once and rewrite benchmark/golden/ from what the current code produces")
	out := flag.String("o", "", "result file (default benchmark/out/result.json; the Chrome trace is written beside it as trace.json)")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files (or comma-separated sets), got %d arguments", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	o := def
	o.seed = *seed
	ws := workloads()
	single := *workloadName != ""
	if single {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		ws = []*workload{w}
		o.seconds = 10
		if *trace < 0 {
			*trace = 0
		}
	}
	if *seconds > 0 {
		o.seconds = *seconds
	}
	if *trace > 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1, got %d", *trace))
	}

	e := &env{seed: o.seed, root: root, outDir: filepath.Join(root, "benchmark", "out")}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fatal(err)
	}
	if e.golden, err = loadGoldens(*updateGolden); err != nil {
		fatal(err)
	}
	if *updateGolden {
		// One short traced pass visits every golden: figure digests and
		// plan decisions in verify, traffic counts in the traced ops.
		o.seconds, o.minSetups, o.maxSetups, o.trace, o.probes = 2.5, 1, 1, true, false
		if _, _, err := runPass(e, ws, o, time.Now()); err != nil {
			fatal(err)
		}
		if err := e.golden.save(filepath.Join(root, "benchmark", "golden")); err != nil {
			fatal(err)
		}
		fmt.Println("goldens rewritten under benchmark/golden/ — review the diff")
		return
	}

	fmt.Printf("benchmark: %d workload(s), seed %d, %d rounds × %.2f s; one caller, closed loop; traffic crosses the host loopback only, not a real link\n",
		len(ws), o.seed, o.rounds, o.seconds/float64(o.rounds))
	start := time.Now()
	result := runResult{Meta: newMeta(root, o)}
	var tracers []*tracer
	if *trace != 1 {
		if result.Workloads, _, err = runPass(e, ws, o, start); err != nil {
			fatal(err)
		}
	}
	if *trace != 0 {
		to := o
		to.trace = true
		if !single && *trace < 0 {
			// The traced pass of a full run is shorter: it feeds medians of
			// per-layer samples, not end-to-end claims.
			to.seconds = o.seconds * 0.4
		}
		traced, trs, err := runPass(e, ws, to, start)
		if err != nil {
			fatal(err)
		}
		tracers = trs
		if result.Workloads == nil {
			result.Workloads = traced
		} else {
			for i, r := range result.Workloads {
				r.merge(traced[i])
			}
		}
	}
	result.Meta.TotalWallS = time.Since(start).Seconds()
	result.Meta.PeakRSSMB = peakRSSMB(0)

	ok := true
	for _, r := range result.Workloads {
		printResult(os.Stdout, r)
		ok = ok && r.Correct
	}
	resultPath := *out
	if resultPath == "" {
		resultPath = filepath.Join(e.outDir, "result.json")
	}
	if err := os.MkdirAll(filepath.Dir(resultPath), 0o755); err != nil {
		fatal(err)
	}
	if err := writeJSONFile(resultPath, result); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult: %s (%.0f s wall, this process's peak RSS %.1f MB)\n", resultPath, result.Meta.TotalWallS, result.Meta.PeakRSSMB)
	if tracers != nil {
		tracePath := filepath.Join(filepath.Dir(resultPath), "trace.json")
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		names := make([]string, len(ws))
		for i, w := range ws {
			names[i] = w.name
		}
		err = writeChrome(f, names, tracers)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace:  %s (load in Perfetto or chrome://tracing)\n", tracePath)
	}
	if single {
		fmt.Println(contractLine(result.Workloads[0], *trace == 1))
	}
	if !ok {
		os.Exit(1)
	}
}

// merge folds a traced pass's result into the untraced one: the traced
// pass contributes the per-layer table, its attempts and failures, and
// its wall time; end-to-end numbers stay those taken with tracing off.
func (r *workloadResult) merge(traced *workloadResult) {
	r.PerLayer = traced.PerLayer
	r.Attempted += traced.Attempted
	r.Failed += traced.Failed
	r.WallS += traced.WallS
	r.Correct = r.Correct && traced.Correct
	if r.FirstError == "" {
		r.FirstError = traced.FirstError
	}
	if r.EndToEnd != nil {
		r.EndToEnd["fail_share"] = float64(r.Failed) / float64(r.Attempted)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
