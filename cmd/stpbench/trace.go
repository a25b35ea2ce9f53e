package main

import (
	"flag"
	"fmt"
	"io"
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

// runTrace runs one collective on the simulator, the live goroutine
// runtime or the loopback TCP transport and reports its event stream
// (send/recv/wait/barrier/combine plus injected faults), optionally
// written as JSON lines or as a Chrome trace-event file for Perfetto
// (ui.perfetto.dev). Simulator timestamps are virtual nanoseconds of the
// machine's cost model; live and tcp ones are wall-clock nanoseconds since
// the run started. With -validate it checks previously written files
// instead of running: .jsonl files against the event schema, anything
// else against the Chrome trace schema.
func runTrace(fs *flag.FlagSet, args []string, out io.Writer) error {
	machineOf := machineFlags(fs)
	alg := fs.String("alg", "Br_xy_source", "algorithm name")
	distName := fs.String("dist", "E", "source distribution name")
	s := fs.Int("s", 30, "number of sources")
	msgBytes := fs.Int("bytes", 4096, "message length per source")
	engine := fs.String("engine", "sim", "execution engine: sim, live or tcp")
	jsonOut := fs.String("json", "", "write the event trace as JSON lines to this file")
	chromeOut := fs.String("chrome", "", "write a Chrome trace-event file (Perfetto-loadable) to this file")
	capEvents := fs.Int("cap", 0, "retain at most N events (0 = all); overflow is counted, not kept")
	iters := fs.Bool("iters", false, "print the per-iteration traffic series")
	heat := fs.Bool("heat", false, "render an ASCII heatmap of per-node busiest-link occupancy (sim, mesh machines)")
	hot := fs.Int("hot", 0, "print the N busiest directed links (sim)")
	validate := fs.Bool("validate", false, "validate the trace files named as arguments instead of running")
	faultDrop := fs.Float64("fault-drop", 0, "per-message drop probability (live/tcp)")
	faultDup := fs.Float64("fault-dup", 0, "per-message duplicate probability (live/tcp)")
	faultDelay := fs.Float64("fault-delay", 0, "per-message delay probability (live/tcp)")
	faultSeed := fs.Int64("fault-seed", 1, "fault schedule seed")
	timeout := fs.Duration("timeout", 0, "receive timeout for live/tcp runs (default 5s when faults are active)")
	files, err := parseOperands(fs, args)
	if err != nil {
		return err
	}
	if *validate {
		if len(files) == 0 {
			return usage(fs, "-validate needs trace files as arguments")
		}
		return validateFiles(files, out)
	}
	if len(files) > 0 {
		return usage(fs, "unexpected argument %q", files[0])
	}
	eng, err := stpbcast.ParseEngine(*engine)
	if err != nil {
		return usage(fs, "-engine: %v", err)
	}
	faulty := *faultDrop > 0 || *faultDup > 0 || *faultDelay > 0
	switch {
	case eng == stpbcast.EngineSim && (faulty || *timeout != 0):
		return usage(fs, "fault injection and -timeout need a real engine; use -engine live or tcp")
	case eng != stpbcast.EngineSim && (*heat || *hot > 0):
		return usage(fs, "-heat and -hot need the cost-model network; use -engine sim")
	}
	m, err := machineOf()
	if err != nil {
		return err
	}

	cfg := stpbcast.Config{Algorithm: *alg, Distribution: *distName, Sources: *s, MsgBytes: *msgBytes}
	rec := trace.NewRecorder(*capEvents)
	opts := stpbcast.RunOptions{Trace: rec, RecvTimeout: *timeout}
	if faulty {
		opts.Faults = &stpbcast.FaultPlan{Seed: *faultSeed, Drop: *faultDrop, Duplicate: *faultDup, DelayProb: *faultDelay}
		if opts.RecvTimeout == 0 {
			// Drops can hang a rank forever; convert that into an error.
			opts.RecvTimeout = 5 * time.Second
		}
	}
	fmt.Fprintf(out, "machine:   %s (%d processors, logical %d×%d)\n", m.Name, m.P(), m.Rows, m.Cols)
	fmt.Fprintf(out, "broadcast: %s, %s(%d), L=%d bytes, engine=%s\n", *alg, *distName, *s, *msgBytes, eng)
	res, runErr := stpbcast.Run(m, eng, cfg, opts)
	switch {
	case runErr != nil:
		runErr = fmt.Errorf("run failed: %w", runErr)
	case eng == stpbcast.EngineSim:
		runErr = printSimResult(out, m, res, *heat, *hot)
	default:
		fmt.Fprintf(out, "elapsed:   %.3f ms (wall clock)\n", float64(res.Elapsed.Nanoseconds())/1e6)
		if len(res.Faults) > 0 {
			fmt.Fprintf(out, "faults:    %d injected, all absorbed\n", len(res.Faults))
		}
	}

	// The trace is written even when the run failed: the partial trace
	// is often the most useful artifact of a failed run.
	fmt.Fprintf(out, "events:    %s\n", rec.Summary())
	if *iters {
		printIterSeries(out, rec)
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, rec.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace:     %d events written to %s", len(rec.Events), *jsonOut)
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(out, " (%d more dropped past -cap %d)", n, *capEvents)
		}
		fmt.Fprintln(out)
	}
	if *chromeOut != "" {
		if err := writeFile(*chromeOut, func(w io.Writer) error { return rec.WriteChrome(w, eng.String()) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "chrome:    trace written to %s — load it at ui.perfetto.dev\n", *chromeOut)
	}
	return runErr
}

// printSimResult prints a simulated run's makespan, the paper's
// characteristic parameters, the hottest links and the heatmap.
func printSimResult(out io.Writer, m *stpbcast.Machine, res *stpbcast.Result, heat bool, hot int) error {
	fmt.Fprintf(out, "elapsed:   %.3f ms (simulated)\n", float64(res.Elapsed.Nanoseconds())/1e6)
	fmt.Fprintf(out, "params:    congestion=%d wait=%d send/rec=%d av_msg_lgth=%.0fB av_act_proc=%.1f\n",
		res.Params.Congestion, res.Params.Wait, res.Params.SendRec, res.Params.AvgMsgLen, res.Params.AvgActive)
	fmt.Fprintf(out, "active:    %s (processors communicating per iteration)\n", metrics.FormatProfile(res.ActiveProfile))
	if hot > 0 {
		fmt.Fprintln(out, "hottest links (node→direction, occupancy, transfers):")
		for _, h := range res.HotLinks[:min(hot, len(res.HotLinks))] {
			fmt.Fprintf(out, "  %-12v %10.3f ms %6d transfers\n", h.Link, h.Busy.Milliseconds(), h.Transfers)
		}
	}
	if !heat {
		return nil
	}
	mesh, ok := m.Topo.(*topology.Mesh2D)
	if !ok {
		fmt.Fprintln(out, "heatmap: only available for mesh machines")
		return nil
	}
	loads := make([]network.Time, len(res.NodeLoad))
	for i, v := range res.NodeLoad {
		loads[i] = network.Time(v)
	}
	grid, err := viz.Heatmap(mesh, loads)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "per-node busiest-outgoing-link occupancy (' ' idle … '@' hottest):\n%s", grid)
	return nil
}

// printIterSeries renders the per-iteration traffic series — the
// link-utilization view of the run over its native clock.
func printIterSeries(out io.Writer, rec *trace.Recorder) {
	series := trace.IterSeries(rec.Events)
	if len(series) == 0 {
		fmt.Fprintln(out, "iters:     (no per-iteration events recorded)")
		return
	}
	fmt.Fprintln(out, "iters:     iter  sends  recvs  waits    bytes   MB/s")
	for _, it := range series {
		fmt.Fprintf(out, "           %4d  %5d  %5d  %5d  %7d  %5.1f\n",
			it.Iter, it.Sends, it.Recvs, it.Waits, it.Bytes, it.Rate()/1e6)
	}
}

// validateFiles checks previously written trace files: .jsonl against
// the event schema, everything else against the Chrome trace-event
// schema. It fails when any file is unreadable or invalid.
func validateFiles(files []string, out io.Writer) error {
	failed := 0
	for _, name := range files {
		data, err := os.ReadFile(name)
		var summary string
		switch {
		case err != nil:
		case strings.HasSuffix(name, ".jsonl"):
			var n int
			n, err = trace.ValidateJSONL(data)
			summary = fmt.Sprintf("%d events", n)
		default:
			var st trace.ChromeStats
			st, err = trace.ValidateChrome(data)
			summary = fmt.Sprintf("%d slices, %d instants, %d flows, %d counters, %d ranks", st.Slices, st.Instants, st.Flows, st.Counters, st.Ranks)
		}
		if err != nil {
			fmt.Fprintf(out, "%s: INVALID: %v\n", name, err)
			failed++
			continue
		}
		fmt.Fprintf(out, "%s: ok (%s)\n", name, summary)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d trace files failed validation", failed, len(files))
	}
	return nil
}

// writeFile creates name and streams the trace into it via write.
func writeFile(name string, write func(io.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
