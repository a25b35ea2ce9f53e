// Command stptrace runs one s-to-p broadcast and reports its event
// trace. The run executes on any of the three engines — the
// deterministic simulator, the live goroutine runtime, or the loopback
// TCP transport — and the unified event stream (send/recv/wait/barrier/
// combine plus injected faults) can be dumped as JSON lines or exported
// in Chrome trace-event format for Perfetto (ui.perfetto.dev).
//
// Usage:
//
//	stptrace -machine paragon -rows 10 -cols 10 -alg Br_xy_source -dist E -s 30 -bytes 4096
//	stptrace -engine live -alg Br_Lin -dist Sq -s 16 -chrome trace.json
//	stptrace -engine tcp -fault-drop 0.05 -fault-seed 7 -json events.jsonl
//	stptrace -validate trace.json events.jsonl
//
// For the simulator, timestamps are virtual nanoseconds of the machine's
// cost model; for live and tcp they are wall-clock nanoseconds since the
// run started. -validate checks previously written files instead of
// running: .jsonl files against the event schema, anything else against
// the Chrome trace schema.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	stpbcast "repro"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	machineName := flag.String("machine", "paragon", "paragon | paragon-mpi | t3d | t3d-random")
	rows := flag.Int("rows", 10, "mesh rows (paragon)")
	cols := flag.Int("cols", 10, "mesh columns (paragon)")
	p := flag.Int("p", 128, "processors (t3d)")
	seed := flag.Int64("seed", 1, "placement seed (t3d-random)")
	alg := flag.String("alg", "Br_xy_source", "algorithm name")
	distName := flag.String("dist", "E", "source distribution name")
	s := flag.Int("s", 30, "number of sources")
	msgBytes := flag.Int("bytes", 4096, "message length per source")
	engine := flag.String("engine", "sim", "execution engine: sim | live | tcp")
	jsonOut := flag.String("json", "", "write the event trace as JSON lines to this file")
	chromeOut := flag.String("chrome", "", "write a Chrome trace-event file (Perfetto-loadable) to this file")
	capEvents := flag.Int("cap", 0, "retain at most N events (0 = all); overflow is counted, not kept")
	iters := flag.Bool("iters", false, "print the per-iteration traffic series")
	heat := flag.Bool("heat", false, "render an ASCII heatmap of per-node busiest-link occupancy (sim, mesh machines)")
	hot := flag.Int("hot", 0, "print the N busiest directed links (sim)")
	validate := flag.Bool("validate", false, "validate trace files named as arguments instead of running")
	faultDrop := flag.Float64("fault-drop", 0, "per-message drop probability (live/tcp)")
	faultDup := flag.Float64("fault-dup", 0, "per-message duplicate probability (live/tcp)")
	faultDelay := flag.Float64("fault-delay", 0, "per-message delay probability (live/tcp)")
	faultSeed := flag.Int64("fault-seed", 1, "fault schedule seed")
	timeout := flag.Duration("timeout", 0, "receive timeout for live/tcp runs (default 5s when faults are active)")
	flag.Parse()

	if *validate {
		validateFiles(flag.Args())
		return
	}

	var m *stpbcast.Machine
	switch *machineName {
	case "paragon":
		m = stpbcast.NewParagon(*rows, *cols)
	case "paragon-mpi":
		m = stpbcast.NewParagonMPI(*rows, *cols)
	case "t3d":
		m = stpbcast.NewT3D(*p)
	case "t3d-random":
		m = stpbcast.NewT3DRandom(*p, *seed)
	default:
		fatal(fmt.Errorf("unknown machine %q", *machineName))
	}

	cfg := stpbcast.Config{Algorithm: *alg, Distribution: *distName, Sources: *s, MsgBytes: *msgBytes}
	faulty := *faultDrop > 0 || *faultDup > 0 || *faultDelay > 0

	rec := trace.NewRecorder(*capEvents)
	fmt.Printf("machine:   %s (%d processors, logical %d×%d)\n", m.Name, m.P(), m.Rows, m.Cols)
	fmt.Printf("broadcast: %s, %s(%d), L=%d bytes, engine=%s\n", *alg, *distName, *s, *msgBytes, *engine)

	switch *engine {
	case "sim":
		if faulty {
			fatal(fmt.Errorf("fault injection needs a real engine; use -engine live or tcp"))
		}
		runSim(m, cfg, rec, *heat, *hot)
	case "live", "tcp":
		if *heat || *hot > 0 {
			fatal(fmt.Errorf("-heat and -hot need the cost-model network; use -engine sim"))
		}
		runReal(m, cfg, rec, *engine, faulty, *faultDrop, *faultDup, *faultDelay, *faultSeed, *timeout)
	default:
		fatal(fmt.Errorf("unknown engine %q (want sim, live or tcp)", *engine))
	}

	fmt.Printf("events:    %s\n", rec.Summary())
	if *iters {
		printIterSeries(rec)
	}
	if *jsonOut != "" {
		writeFile(*jsonOut, func(f *os.File) error { return rec.WriteJSON(f) })
		fmt.Printf("trace:     %d events written to %s", len(rec.Events), *jsonOut)
		if n := rec.Dropped(); n > 0 {
			fmt.Printf(" (%d more dropped past -cap %d)", n, *capEvents)
		}
		fmt.Println()
	}
	if *chromeOut != "" {
		writeFile(*chromeOut, func(f *os.File) error { return rec.WriteChrome(f, *engine) })
		fmt.Printf("chrome:    trace written to %s — load it at ui.perfetto.dev\n", *chromeOut)
	}
}

// runSim executes on the discrete-event simulator and prints the paper's
// characteristic parameters alongside the trace summary.
func runSim(m *stpbcast.Machine, cfg stpbcast.Config, rec *trace.Recorder, heat bool, hot int) {
	res, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{Trace: rec})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("elapsed:   %.3f ms (simulated)\n", float64(res.Elapsed.Nanoseconds())/1e6)
	fmt.Printf("params:    congestion=%d wait=%d send/rec=%d av_msg_lgth=%.0fB av_act_proc=%.1f\n",
		res.Params.Congestion, res.Params.Wait, res.Params.SendRec, res.Params.AvgMsgLen, res.Params.AvgActive)
	fmt.Printf("active:    %s (processors communicating per iteration)\n", metrics.FormatProfile(res.ActiveProfile))
	if hot > 0 {
		fmt.Println("hottest links (node→direction, occupancy, transfers):")
		for _, h := range res.HotLinks {
			if hot == 0 {
				break
			}
			hot--
			fmt.Printf("  %-12v %10.3f ms %6d transfers\n", h.Link, h.Busy.Milliseconds(), h.Transfers)
		}
	}
	if heat {
		mesh, ok := m.Topo.(*topology.Mesh2D)
		if !ok {
			fmt.Println("heatmap: only available for mesh machines")
			return
		}
		loads := make([]network.Time, len(res.NodeLoad))
		for i, v := range res.NodeLoad {
			loads[i] = network.Time(v)
		}
		grid, err := viz.Heatmap(mesh, loads)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("per-node busiest-outgoing-link occupancy (' ' idle … '@' hottest):\n%s", grid)
	}
}

// runReal executes on the live or tcp engine with real payload bytes,
// optionally under a fault plan, recording the event stream into rec.
// The trace is kept (and later written) even when the run errors out, so
// a failing chaos run can still be inspected.
func runReal(m *stpbcast.Machine, cfg stpbcast.Config, rec *trace.Recorder, engine string,
	faulty bool, drop, dup, delay float64, seed int64, timeout time.Duration) {
	opts := stpbcast.RunOptions{Trace: rec, RecvTimeout: timeout}
	if faulty {
		opts.Faults = &stpbcast.FaultPlan{Seed: seed, Drop: drop, Duplicate: dup, DelayProb: delay}
		if opts.RecvTimeout == 0 {
			// Drops can hang a rank forever; convert that into an error.
			opts.RecvTimeout = 5 * time.Second
		}
	}
	opts.Payload = func(rank int) []byte {
		b := make([]byte, cfg.MsgBytes)
		for i := range b {
			b[i] = byte(rank + i)
		}
		return b
	}
	eng, err := stpbcast.ParseEngine(engine)
	if err != nil {
		fatal(err)
	}
	res, err := stpbcast.Run(m, eng, cfg, opts)
	if err != nil {
		// Report, but fall through: the partial trace is often the most
		// useful artifact of a failed run.
		fmt.Fprintln(os.Stderr, "stptrace: run failed:", err)
	} else {
		fmt.Printf("elapsed:   %.3f ms (wall clock)\n", float64(res.Elapsed.Nanoseconds())/1e6)
		if len(res.Faults) > 0 {
			fmt.Printf("faults:    %d injected, all absorbed\n", len(res.Faults))
		}
	}
}

// printIterSeries renders the per-iteration traffic series — the
// link-utilization view of the run over its native clock.
func printIterSeries(rec *trace.Recorder) {
	series := trace.IterSeries(rec.Events)
	if len(series) == 0 {
		fmt.Println("iters:     (no per-iteration events recorded)")
		return
	}
	fmt.Println("iters:     iter  sends  recvs  waits    bytes   MB/s")
	for _, it := range series {
		fmt.Printf("           %4d  %5d  %5d  %5d  %7d  %5.1f\n",
			it.Iter, it.Sends, it.Recvs, it.Waits, it.Bytes, it.Rate()/1e6)
	}
}

// validateFiles checks previously written trace files: .jsonl against the
// event schema, everything else against the Chrome trace-event schema.
// Any invalid file makes the command exit nonzero.
func validateFiles(files []string) {
	if len(files) == 0 {
		fatal(fmt.Errorf("-validate needs file arguments"))
	}
	failed := false
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			fmt.Printf("%s: %v\n", name, err)
			failed = true
			continue
		}
		if strings.HasSuffix(name, ".jsonl") {
			n, err := trace.ValidateJSONL(data)
			if err != nil {
				fmt.Printf("%s: INVALID: %v\n", name, err)
				failed = true
				continue
			}
			fmt.Printf("%s: ok (%d events)\n", name, n)
		} else {
			st, err := trace.ValidateChrome(data)
			if err != nil {
				fmt.Printf("%s: INVALID: %v\n", name, err)
				failed = true
				continue
			}
			fmt.Printf("%s: ok (%d slices, %d instants, %d flows, %d counters, %d ranks)\n",
				name, st.Slices, st.Instants, st.Flows, st.Counters, st.Ranks)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeFile creates name and streams the trace into it via write.
func writeFile(name string, write func(*os.File) error) {
	f, err := os.Create(name)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stptrace:", err)
	os.Exit(1)
}
