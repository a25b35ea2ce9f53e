package daemon

import (
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/bench"
)

func init() {
	bench.Register(bench.Experiment{
		ID:        "figDaemon",
		Title:     "Broadcast-as-a-service: warm session pool vs fresh-session-per-request under closed-loop load, TCP engine, p=16",
		Paper:     "Beyond the paper: the paper's broadcasts are one-shot library calls; this figure measures the daemon serving them — req/s and tail latency of a closed-loop concurrency sweep through POST /v1/broadcast, with the keyed warm-session pool against a baseline that rebuilds the TCP mesh for every request.",
		WallClock: true,
		Run:       runFigDaemon,
	})
}

// figDaemon workload: the figSession shape served over HTTP — 1 KiB
// Br_Lin broadcasts on a 4×4 TCP mesh — swept over closed-loop client
// concurrency.
var figDaemonLevels = []int{1, 2, 4, 8}

const figDaemonRequests = 32 // per concurrency level, per server

// figDaemonRequest is the broadcast the load generator hammers.
func figDaemonRequest() BroadcastRequest {
	return BroadcastRequest{
		Engine:        "tcp",
		Topology:      "paragon",
		Rows:          4,
		Cols:          4,
		Algorithm:     "Br_Lin",
		Distribution:  "E",
		Sources:       4,
		MsgBytes:      1024,
		Tenant:        "figDaemon",
		RecvTimeoutMs: 30_000,
	}
}

// runFigDaemon sweeps closed-loop concurrency against two in-process
// daemons — one pooled, one opening a fresh session per request — and
// reports both rates, the speedup, and the pooled tail latency.
func runFigDaemon() (*bench.Series, error) {
	s := bench.NewSeries(
		"Daemon throughput: warm session pool vs fresh session per request, 4×4 TCP mesh, 1 KiB Br_Lin/E/s=4, closed loop",
		"client concurrency", "req/s (speedup is a ratio, p95 in ms)",
		"fresh", "pooled", "speedup", "pooled p95 ms")
	s.Notes = "Wall-clock measurement, not a paper figure: absolute rates vary with the host, but the " +
		"speedup column is the point — the pool serves every request over one warm mesh (per-key " +
		"serialization queues concurrent requests onto it) while the baseline pays listeners, the O(p²) " +
		"dial mesh and reader pumps per request. The speedup is reported, not gated."

	for _, conc := range figDaemonLevels {
		fresh, err := figDaemonLevel(conc, true)
		if err != nil {
			return nil, fmt.Errorf("daemon: figDaemon fresh conc=%d: %w", conc, err)
		}
		pooled, err := figDaemonLevel(conc, false)
		if err != nil {
			return nil, fmt.Errorf("daemon: figDaemon pooled conc=%d: %w", conc, err)
		}
		speedup := 0.0
		if fresh.ReqPerSec > 0 {
			speedup = pooled.ReqPerSec / fresh.ReqPerSec
		}
		s.AddX(fmt.Sprintf("%d", conc), fresh.ReqPerSec, pooled.ReqPerSec, speedup, pooled.P95Ms)
	}
	return s, nil
}

// figDaemonLevel runs one closed-loop level against a fresh in-process
// daemon and reports the load result. All requests must succeed — a
// rejected or failed request fails the figure.
func figDaemonLevel(conc int, disablePool bool) (*LoadReport, error) {
	srv := New(Options{
		Pool:        PoolOptions{Disable: disablePool},
		MaxInFlight: 64,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	report, err := RunLoad(LoadSpec{
		BaseURL:     ts.URL,
		Request:     figDaemonRequest(),
		Concurrency: conc,
		Requests:    figDaemonRequests,
		Duration:    time.Minute,
	})
	if err != nil {
		return nil, err
	}
	if report.Completed != report.Requests {
		return nil, fmt.Errorf("only %d/%d requests completed (%d rejected, %d errors)",
			report.Completed, report.Requests, report.Rejected, report.Errors)
	}
	return report, nil
}
