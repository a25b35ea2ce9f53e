package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	stpbcast "repro"
	"repro/internal/comm"
	"repro/internal/core"
)

// TestMain routes the coordinator's re-executions of this test binary
// into worker mode, as main does for the benchmark itself.
func TestMain(m *testing.M) {
	maybeWorker()
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // unsorted on purpose
	}
	got := summarize(samples)
	if got.N != 1000 || got.TailPct != 99 || math.Abs(got.P50-500.5) > 1e-9 || math.Abs(got.Tail-990.01) > 1e-9 {
		t.Errorf("summarize(1..1000) = %+v", got)
	}
	if few := summarize([]float64{3, 1, 2}); few.TailPct != 0 || few.Tail != 0 || few.P50 != 2 {
		t.Errorf("summarize of 3 samples reports a tail: %+v", few)
	}
}

// TestSpread pins the spread rule to the acceptance driver's: Python's
// statistics.quantiles(v, n=4) gives [2.75, 5.5, 8.25] for 1..10.
func TestSpread(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
	if got := spread([]float64{100, 110, 90}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread of three runs = %g, want the range over the median, 0.2", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one run = %g", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"single runs within bound", lower, []float64{1.00}, []float64{1.08}, verdictOK},
		{"single runs beyond bound", lower, []float64{1.00}, []float64{1.12}, verdictWorse},
		{"improvement", lower, []float64{1.00, 1.01, 0.99}, []float64{0.80, 0.81, 0.79}, verdictOK},
		{"higher is better, dropped", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictWorse},
		{"higher is better, rose", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictOK},
		{"noisy and overlapping", lower, []float64{1.0, 1.3, 0.8}, []float64{1.2, 0.9, 1.5}, verdictUnresolved},
		{"noisy but every B run worse", lower, []float64{1.0, 1.2, 0.9}, []float64{1.6, 1.9, 1.5}, verdictWorse},
		{"noisy but every B run better", lower, []float64{1.0, 1.2, 0.9}, []float64{0.5, 0.6, 0.7}, verdictOK},
		{"unbounded metric", metricDef{Name: "goodput_mb_s", Better: "higher"}, []float64{100}, []float64{10}, verdictInfo},
		{"fail share rose", metricDef{Name: "fail_share", Better: "lower"}, []float64{0}, []float64{0.001}, verdictWorse},
		{"fail share stayed", metricDef{Name: "fail_share", Better: "lower"}, []float64{0}, []float64{0}, verdictOK},
		{"fail share rose in one run of three", metricDef{Name: "fail_share", Better: "lower"}, []float64{0, 0, 0}, []float64{0, 0.001, 0}, verdictWorse},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, failShare float64) string {
		path := filepath.Join(dir, name)
		res := runResult{Workloads: []*workloadResult{{Name: "w", EndToEnd: map[string]float64{"op_p50_ms": p50, "fail_share": failShare}}}}
		if err := writeJSONFile(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.json", 1.0, 0)
	for _, c := range []struct {
		name      string
		b         string
		regressed bool
		row       string
	}{
		{"same", write("same.json", 1.05, 0), false, verdictOK},
		{"slower", write("slow.json", 1.2, 0), true, verdictWorse},
		{"failing", write("fail.json", 1.0, 0.01), true, verdictWorse},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, bounds, []string{base}, []string{c.b})
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.row) {
			t.Errorf("%s: regressed=%v, want %v; output:\n%s", c.name, regressed, c.regressed, out.String())
		}
	}
}

// markComm is a comm that records the iteration and phase marks it gets.
type markComm struct {
	comm.Comm
	iters  []int
	phases []string
}

func (m *markComm) Rank() int              { return 0 }
func (m *markComm) Size() int              { return 1 }
func (m *markComm) BeginIter(i int)        { m.iters = append(m.iters, i) }
func (m *markComm) BeginPhase(name string) { m.phases = append(m.phases, name) }

// clockComm additionally meters virtual time, like the simulator's Proc.
type clockComm struct{ markComm }

func (c *clockComm) AdvanceCombine(int) {}

// probeAlg reports which comm the engine side of a decorator handed it.
type probeAlg struct{ saw comm.Comm }

func (p *probeAlg) Name() string { return "probe" }
func (p *probeAlg) Run(c comm.Comm, _ core.Spec, m comm.Message) comm.Message {
	p.saw = c
	comm.MarkIter(c, 3)
	comm.MarkPhase(c, "gather")
	return m
}

func TestTracingDecorators(t *testing.T) {
	tr := newTracer(time.Now(), 1, 1, 0)
	for _, name := range []string{"Br_Lin", "AllRed_RecDouble", "A2A_Pairwise"} {
		inner, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := &tracedAlg{inner: inner, t: tr}
		if wrapped.Name() != name || core.CollectiveOf(wrapped) != core.CollectiveOf(inner) {
			t.Errorf("%s: decorator reports %s/%s", name, wrapped.Name(), core.CollectiveOf(wrapped))
		}
	}

	inner := &probeAlg{}
	real := &markComm{}
	(&tracedAlg{inner: inner, t: tr}).Run(real, core.Spec{}, comm.Message{})
	if _, wrapped := inner.saw.(*tracedComm); !wrapped {
		t.Errorf("a real-byte comm was not wrapped: the algorithm saw %T", inner.saw)
	}
	if len(real.iters) != 1 || real.iters[0] != 3 || len(real.phases) != 1 || real.phases[0] != "gather" {
		t.Errorf("iteration/phase marks not forwarded: %v %v", real.iters, real.phases)
	}
	if _, hidesClock := inner.saw.(comm.Clock); hidesClock {
		t.Error("the tracing comm must not claim to meter virtual time")
	}

	// A comm with a virtual clock is the simulator's: it is never wrapped.
	virtual := &clockComm{}
	(&tracedAlg{inner: inner, t: tr}).Run(virtual, core.Spec{}, comm.Message{})
	if inner.saw != comm.Comm(virtual) {
		t.Errorf("the simulator's comm was wrapped: the algorithm saw %T", inner.saw)
	}

	// End to end: the decorator leaves simulated time untouched.
	m := stpbcast.NewParagon(4, 4)
	cfg := bcastConfig(smallBytes)
	plain, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	brLin, _ := core.ByName(cfg.Algorithm)
	traced, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{Algorithm: &tracedAlg{inner: brLin, t: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elapsed != traced.Elapsed {
		t.Errorf("simulated time changed under the decorator: %v vs %v", plain.Elapsed, traced.Elapsed)
	}
}

// TestTraceRunBudget runs one traced live broadcast and checks that the
// budget is self-consistent and the spans nest.
func TestTraceRunBudget(t *testing.T) {
	e := testEnv(t)
	inst, err := workloadByName("session_live_collectives").open(e)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	tr := newTracer(time.Now(), 1, meshRows*meshCols, 1)
	ref := tr.beginOp("op")
	if err := inst.op(tr); err != nil {
		t.Fatal(err)
	}
	tr.end(ref)
	if err := inst.verify(); err != nil {
		t.Fatal(err)
	}
	byID := map[int32]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	counts := map[string]int{}
	for _, s := range tr.spans {
		counts[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %s [%d,%d] is not inside its parent %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if counts["op"] != 1 || counts["session.run"] != len(cycleKeys) || counts["rank.alg_run"] != len(cycleKeys)*meshRows*meshCols || counts["comm.send"] == 0 {
		t.Errorf("unexpected span counts: %v", counts)
	}
	for _, metric := range []string{"stpbcast.session_run_us", "core.alg_run_us", "core.cycle_us.alltoall", "core.sends_per_run"} {
		if len(tr.obs[metric]) == 0 {
			t.Errorf("no samples for %s", metric)
		}
	}
	var chrome bytes.Buffer
	if err := writeChrome(&chrome, []string{"w"}, []*tracer{tr}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil || len(doc.TraceEvents) != len(tr.spans)+1 {
		t.Errorf("Chrome trace: %v, %d events for %d spans", err, len(doc.TraceEvents), len(tr.spans))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's tables in step
// and within the contract's syntax.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || strings.Join(spec.Command, " ") != "go run ./benchmark" {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(ws))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q breaks the contract's syntax", w.name)
		}
		seen[w.name] = true
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i] != d {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %+v breaks the contract's syntax", kind, d)
			}
			seen[d.Name] = true
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayerDefs)
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup || len(perLayerDefs) > 128 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("setup_s present: %v; %d per-layer metrics; run_seconds %d", hasSetup, len(perLayerDefs), spec.RunSeconds)
	}
	// 4 + 22 runs per workload must fit the driver's cap with room for
	// set-up, warm-up, probes and two builds.
	if runs := 4 + 22*len(ws); float64(runs)*(float64(spec.RunSeconds)+9) > 3420 {
		t.Errorf("%d runs of %d s measured time leave no room under the 3420 s cap", runs, spec.RunSeconds)
	}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGoldens(false)
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: 1, root: root, outDir: t.TempDir(), golden: g}
}

// smoke runs one workload briefly through both passes and checks that no
// op failed and that closing it returned the process to its baseline.
func smoke(t *testing.T, name string) {
	e := testEnv(t)
	w := workloadByName(name)
	// Let earlier tests' goroutines finish before taking the baseline.
	time.Sleep(50 * time.Millisecond)
	goroutines, fds := runtime.NumGoroutine(), openFDs(0)
	o := defaultOptions()
	o.seconds, o.rounds, o.minSetups, o.maxSetups, o.warmOps, o.probes = 0.2, 1, 1, 1, 1, false
	for _, traced := range []bool{false, true} {
		o.trace = traced
		results, _, err := runPass(e, []*workload{w}, o, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if !r.Correct || r.Failed != 0 || r.EndToEnd["fail_share"] != 0 {
			t.Fatalf("traced=%v: %d of %d ops failed: %s", traced, r.Failed, r.Attempted, r.FirstError)
		}
		for _, d := range endToEnd {
			if r.EndToEnd[d.Name] <= 0 {
				t.Errorf("traced=%v: end-to-end metric %s = %g, must be positive", traced, d.Name, r.EndToEnd[d.Name])
			}
		}
		if traced && r.PerLayer["host.calib_ns"] <= 0 {
			t.Errorf("traced pass reported no per-layer metrics: %v", r.PerLayer)
		}
		line := contractLine(r, traced)
		var parsed struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &parsed); err != nil || !parsed.Correct || parsed.Attempted < 1 {
			t.Fatalf("result line %s: %v", line, err)
		}
		if want := map[bool]int{false: len(endToEnd), true: len(perLayerDefs)}[traced]; len(parsed.Metrics) != want {
			t.Errorf("traced=%v: result line carries %d metrics, want %d", traced, len(parsed.Metrics), want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines || openFDs(0) > fds {
		if time.Now().After(deadline) {
			t.Fatalf("after close: %d goroutines (baseline %d), %d descriptors (baseline %d)", runtime.NumGoroutine(), goroutines, openFDs(0), fds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSmokeInProcess(t *testing.T) {
	for _, name := range []string{"session_tcp_small", "session_tcp_large", "session_live_collectives", "sim_figures", "plan_cold"} {
		t.Run(name, func(t *testing.T) { smoke(t, name) })
	}
}

// TestSharedProcessPeak: workloads measured together share one VmHWM, so
// none of the in-process ones may report it as its own.
func TestSharedProcessPeak(t *testing.T) {
	e := testEnv(t)
	o := defaultOptions()
	o.seconds, o.rounds, o.minSetups, o.maxSetups, o.warmOps = 0.1, 1, 1, 1, 1
	ws := []*workload{workloadByName("session_live_collectives"), workloadByName("session_tcp_small")}
	results, _, err := runPass(e, ws, o, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if _, ok := r.EndToEnd["peak_rss_mb"]; ok || r.EndToEnd["allocs_per_op"] <= 0 {
			t.Errorf("%s in a shared process: end-to-end metrics %v", r.Name, r.EndToEnd)
		}
	}
}

func TestSmokeChildProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts stpbcastd, spawns cluster workers")
	}
	for _, name := range []string{"daemon_tcp_small", "cluster_p64"} {
		t.Run(name, func(t *testing.T) { smoke(t, name) })
	}
}
