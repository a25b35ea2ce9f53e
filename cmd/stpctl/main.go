// Command stpctl is the stpbcastd client: it speaks the daemon's
// JSON-over-HTTP control plane.
//
// Usage:
//
//	stpctl broadcast -engine tcp -rows 4 -cols 4 -alg Br_Lin -dist E -s 4 -bytes 1024
//	stpctl broadcast -rows 4 -cols 4 -collective AllReduce -bytes 1024
//	stpctl sessions              # the warm-session pool
//	stpctl stats                 # daemon-wide counters
//	stpctl ping                  # liveness
//	stpctl metrics               # raw text-format /metrics
//	stpctl shutdown              # graceful drain
//
// Every subcommand takes -addr (default $STPBCASTD_ADDR, else
// 127.0.0.1:7411). Exit status is 0 on success, 1 on a daemon or
// transport error, 2 on a usage error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	stpbcast "repro"
	"repro/internal/daemon"
)

func main() {
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "broadcast":
		err = cmdBroadcast(args)
	case "sessions":
		err = cmdSessions(args)
	case "stats":
		err = cmdStats(args)
	case "ping":
		err = cmdPing(args)
	case "metrics":
		err = cmdMetrics(args)
	case "shutdown":
		err = cmdShutdown(args)
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "stpctl: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `stpctl — stpbcastd client

commands:
  broadcast   run one broadcast through the daemon
  sessions    list the warm-session pool
  stats       daemon-wide counters
  ping        liveness check
  metrics     raw /metrics text
  shutdown    graceful drain

run 'stpctl <command> -h' for that command's flags.
`)
}

// parse parses a command's flags and refuses a stray argument: the flag
// package stops at the first one, so the flags after it would be dropped
// without a word.
func parse(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "stpctl %s: unexpected arguments %v\n", fs.Name(), fs.Args())
		fs.Usage()
		os.Exit(2)
	}
}

// addrFlag installs -addr with the environment default.
func addrFlag(fs *flag.FlagSet) *string {
	def := os.Getenv("STPBCASTD_ADDR")
	if def == "" {
		def = "127.0.0.1:7411"
	}
	return fs.String("addr", def, "daemon address (host:port; default $STPBCASTD_ADDR)")
}

// baseURL normalizes an -addr value to an http base URL.
func baseURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

var client = &http.Client{Timeout: 2 * time.Minute}

// call performs one API call, decoding a 2xx body into out (when
// non-nil) and any error body into a returned error.
func call(method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e daemon.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s", resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func cmdBroadcast(args []string) error {
	fs := flag.NewFlagSet("broadcast", flag.ExitOnError)
	addr := addrFlag(fs)
	engine := fs.String("engine", "sim", "engine: sim, live or tcp")
	topo := fs.String("topology", "paragon", "machine: paragon, paragon-mpi, t3d or hypercube")
	rows := fs.Int("rows", 4, "logical mesh rows")
	cols := fs.Int("cols", 4, "logical mesh cols")
	collective := fs.String("collective", "", "collective pattern: Broadcast (the default), Reduce, AllReduce, Scatter, AllGather or AllToAll")
	alg := fs.String("alg", "Auto", "algorithm name, or Auto")
	dist := fs.String("dist", "E", "source distribution name (source-taking collectives only)")
	s := fs.Int("s", 4, "source count (source-taking collectives only)")
	bytesF := fs.Int("bytes", 1024, "per-source message bytes")
	tenant := fs.String("tenant", "stpctl", "tenant name for quota accounting")
	recvTO := fs.Duration("recv-timeout", 0, "per-receive deadline (0 = daemon default)")
	runTO := fs.Duration("run-timeout", 0, "whole-run deadline (0 = none)")
	traceF := fs.Bool("trace", false, "record the run's event stream and print per-kind counts")
	jsonF := fs.Bool("json", false, "print the raw JSON response")
	parse(fs, args)

	coll, err := stpbcast.ParseCollective(*collective)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stpctl broadcast: -collective: %v\n", err)
		os.Exit(2)
	}
	req := daemon.BroadcastRequest{
		Engine:        *engine,
		Topology:      *topo,
		Rows:          *rows,
		Cols:          *cols,
		Collective:    *collective,
		Algorithm:     *alg,
		MsgBytes:      *bytesF,
		Tenant:        *tenant,
		RecvTimeoutMs: recvTO.Milliseconds(),
		RunTimeoutMs:  runTO.Milliseconds(),
		Trace:         *traceF,
	}
	if coll.Caps().TakesSources {
		req.Distribution = *dist
		req.Sources = *s
	} else {
		// Sourceless collectives (AllGather, AllToAll) take no -dist/-s:
		// an explicit value is a usage error, never silently ignored.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "dist" || f.Name == "s" {
				fmt.Fprintf(os.Stderr, "stpctl broadcast: -%s: %s takes no source set (every rank contributes)\n", f.Name, coll)
				os.Exit(2)
			}
		})
	}
	var resp daemon.BroadcastResponse
	if err := call(http.MethodPost, baseURL(*addr)+"/v1/broadcast", req, &resp); err != nil {
		return err
	}
	if *jsonF {
		return printJSON(resp)
	}
	fmt.Printf("ok  key=%s  collective=%s  alg=%s  elapsed=%v  server=%v  runs=%d  failures=%d  bytes=%d  reconnects=%d\n",
		resp.Key, resp.Collective, resp.Algorithm,
		time.Duration(resp.ElapsedNs), time.Duration(resp.ServerNs),
		resp.Runs, resp.Failures, resp.Bytes, resp.Reconnects)
	if resp.Events != nil {
		fmt.Printf("    events: %d sends, %d recvs, %d waits (%v blocked), %d barriers, %d faults\n",
			resp.Events.Sends, resp.Events.Recvs, resp.Events.Waits,
			time.Duration(resp.Events.WaitNs), resp.Events.Barriers, resp.Events.Faults)
	}
	return nil
}

func cmdSessions(args []string) error {
	fs := flag.NewFlagSet("sessions", flag.ExitOnError)
	addr := addrFlag(fs)
	jsonF := fs.Bool("json", false, "print the raw JSON response")
	parse(fs, args)
	var resp daemon.SessionsResponse
	if err := call(http.MethodGet, baseURL(*addr)+"/v1/sessions", nil, &resp); err != nil {
		return err
	}
	if *jsonF {
		return printJSON(resp)
	}
	if len(resp.Sessions) == 0 {
		fmt.Println("no warm sessions")
		return nil
	}
	fmt.Printf("%-28s %6s %9s %12s %11s %5s %9s\n", "key", "runs", "failures", "bytes", "reconnects", "busy", "idle")
	for _, s := range resp.Sessions {
		fmt.Printf("%-28s %6d %9d %12d %11d %5v %8.1fs\n",
			s.Key, s.Runs, s.Failures, s.Bytes, s.Reconnects, s.Busy, float64(s.IdleMs)/1e3)
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := addrFlag(fs)
	jsonF := fs.Bool("json", false, "print the raw JSON response")
	parse(fs, args)
	var st daemon.StatsResponse
	if err := call(http.MethodGet, baseURL(*addr)+"/v1/stats", nil, &st); err != nil {
		return err
	}
	if *jsonF {
		return printJSON(st)
	}
	fmt.Printf("requests   %d (completed %d, failed %d, rejected %d)\n", st.Requests, st.Completed, st.Failed, st.Rejected)
	fmt.Printf("in flight  %d\n", st.InFlight)
	fmt.Printf("sessions   %d warm (%d opened, %d evicted)\n", st.Sessions, st.Opens, st.Evictions)
	fmt.Printf("latency    p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n", st.P50Ms, st.P95Ms, st.P99Ms)
	fmt.Printf("uptime     %.1fs  draining=%v\n", float64(st.UptimeMs)/1e3, st.Draining)
	for tenant, n := range st.TenantRequests {
		fmt.Printf("tenant     %-20s %d requests\n", tenant, n)
	}
	return nil
}

func cmdPing(args []string) error {
	fs := flag.NewFlagSet("ping", flag.ExitOnError)
	addr := addrFlag(fs)
	parse(fs, args)
	start := time.Now()
	var p daemon.PingResponse
	if err := call(http.MethodGet, baseURL(*addr)+"/v1/ping", nil, &p); err != nil {
		return err
	}
	fmt.Printf("ok: up %.1fs, rtt %v, draining=%v\n", float64(p.UptimeMs)/1e3, time.Since(start).Round(time.Microsecond), p.Draining)
	return nil
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := addrFlag(fs)
	parse(fs, args)
	resp, err := client.Get(baseURL(*addr) + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s", resp.Status)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func cmdShutdown(args []string) error {
	fs := flag.NewFlagSet("shutdown", flag.ExitOnError)
	addr := addrFlag(fs)
	parse(fs, args)
	var resp daemon.ShutdownResponse
	if err := call(http.MethodPost, baseURL(*addr)+"/v1/shutdown", nil, &resp); err != nil {
		return err
	}
	fmt.Println("draining")
	return nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
