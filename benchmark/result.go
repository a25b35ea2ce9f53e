package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadResult is what one workload measured. EndToEnd comes from
// untraced ops only; PerLayer from a traced pass.
type workloadResult struct {
	Name       string             `json:"name"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	WallS      float64            `json:"wall_s"`
	Op         timing             `json:"op_ms"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer   perLayer           `json:"per_layer,omitempty"`
	Rounds     []roundResult      `json:"rounds"`
}

// roundResult is one round's untraced ops beside the round's calibration
// spin: a round that is slow in both was slowed by the host.
type roundResult struct {
	CalibNs float64 `json:"calib_ns"`
	P50Ms   float64 `json:"p50_ms"`
	Ops     int     `json:"ops"`
}

// meta records what a result file was measured on and with, so that two
// files can be judged comparable and the total run time checked against
// the contract's cap.
type meta struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Seed         int64   `json:"seed"`
	Rounds       int     `json:"rounds"`
	RoundSeconds float64 `json:"round_seconds"`
	Load         string  `json:"load"`
	Network      string  `json:"network"`
	Started      string  `json:"started"`
	TotalWallS   float64 `json:"total_wall_s"`
	// PeakRSSMB is this process's VmHWM at exit. In a full run it stands
	// in for the in-process workloads' peak_rss_mb, which cannot be told
	// apart inside one process.
	PeakRSSMB float64 `json:"process_peak_rss_mb"`
}

type runResult struct {
	Meta      meta              `json:"meta"`
	Workloads []*workloadResult `json:"workloads"`
}

func newMeta(root string, o options) meta {
	commit := "unknown" // a driver checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return meta{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Rounds: o.rounds, RoundSeconds: o.seconds / float64(o.rounds),
		Load:    "closed loop, one caller (one HTTP connection for the daemon workload)",
		Network: "host loopback only; no real link is crossed",
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// fillDiagnostics adds the end-to-end numbers that apply to single
// workloads, computed from the untraced ops: fail_share everywhere,
// goodput on the byte-path workload, p99 on the daemon (only when at
// least ten samples lie beyond it). In a traced pass the same two go to
// the per-layer table, where per-workload runs can report them.
func (st *wstate) fillDiagnostics(res *workloadResult) {
	if res.EndToEnd == nil {
		return
	}
	res.EndToEnd["fail_share"] = float64(res.Failed) / float64(res.Attempted)
	if st.w.deliveredBytes > 0 {
		mbs := float64(st.w.deliveredBytes) * float64(len(st.lat)) / 1e6 / st.opTime.Seconds()
		res.EndToEnd["goodput_mb_s"] = mbs
		if res.PerLayer != nil {
			res.PerLayer["tcp.goodput_mb_s"] = mbs
		}
	}
	if st.w.reportP99 && tailPercentile(res.Op.N) >= 99 {
		sorted := append([]float64(nil), st.lat...)
		sort.Float64s(sorted)
		p99 := quantile(sorted, 0.99)
		res.EndToEnd["op_p99_ms"] = p99
		if res.PerLayer != nil {
			res.PerLayer["daemon.op_p99_ms"] = p99
		}
	}
}

// diagnosticUnits are the units of the end-to-end numbers outside the
// endToEnd table.
var diagnosticUnits = map[string]string{"fail_share": "share", "goodput_mb_s": "MB/s", "op_p99_ms": "ms"}

func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayerDefs} {
		for _, d := range tab {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return diagnosticUnits[name]
}

// printResult prints every metric of one workload by name with its unit.
func printResult(w io.Writer, r *workloadResult) {
	status := "ok"
	if !r.Correct {
		status = "FAILED: " + r.FirstError
	}
	fmt.Fprintf(w, "\n== %s  (%d ops attempted, %d failed, %.1f s wall)  %s\n", r.Name, r.Attempted, r.Failed, r.WallS, status)
	if r.EndToEnd != nil {
		tail := "no tail percentile (fewer than 100 samples)"
		if r.Op.TailPct > 0 {
			tail = fmt.Sprintf("p%g %.4f ms", r.Op.TailPct, r.Op.Tail)
		}
		fmt.Fprintf(w, "  op latency: p50 %.4f ms, %s, n=%d\n", r.Op.P50, tail, r.Op.N)
	}
	for _, tab := range []map[string]float64{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(tab))
		for name := range tab {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, tab[name], unitOf(name))
		}
	}
}

// contractLine renders the result line the acceptance driver reads: every
// end-to-end metric for an untraced run, every per-layer metric (0 for a
// layer the workload does not touch) for a traced one.
func contractLine(r *workloadResult, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if traced {
		for _, d := range perLayerDefs {
			metrics[d.Name] = mv{r.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = mv{r.EndToEnd[d.Name], d.Unit}
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(map[string]any{"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": metrics})
	return string(line)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
