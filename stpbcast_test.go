package stpbcast_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	stpbcast "repro"
	"repro/internal/core"
)

func TestSimulateQuickstart(t *testing.T) {
	m := stpbcast.NewParagon(10, 10)
	res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm:    "Br_xy_source",
		Distribution: "E",
		Sources:      30,
		MsgBytes:     4096,
	}, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no simulated time")
	}
	if res.Params.SendRec == 0 {
		t.Fatal("no operations recorded")
	}
	if len(res.ActiveProfile) == 0 {
		t.Fatal("no iteration profile")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "Dr", Sources: 12, MsgBytes: 1024}
	a, err := stpbcast.Run(stpbcast.NewT3D(64), stpbcast.EngineSim, cfg, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := stpbcast.Run(stpbcast.NewT3D(64), stpbcast.EngineSim, cfg, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

func TestSimulateAllAlgorithmsByName(t *testing.T) {
	for _, alg := range stpbcast.Algorithms() {
		m := stpbcast.NewParagon(4, 4)
		res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
			Algorithm:    alg.Name(),
			Distribution: "Sq",
			Sources:      6,
			MsgBytes:     256,
		}, stpbcast.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s: no time", alg.Name())
		}
	}
}

func TestSimulateExplicitSources(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm:   "2-Step",
		SourceRanks: []int{3, 9, 12},
		MsgBytes:    128,
	}, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestSourceRanksValidation(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	// Unsorted ranks are accepted (a sorted copy is taken) and the
	// caller's slice is left untouched.
	ranks := []int{12, 3, 9}
	res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm: "Br_Lin", SourceRanks: ranks, MsgBytes: 128,
	}, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no simulated time")
	}
	if ranks[0] != 12 || ranks[1] != 3 || ranks[2] != 9 {
		t.Fatalf("caller slice mutated: %v", ranks)
	}
	// Duplicates and out-of-range ranks are errors, not panics.
	for _, bad := range [][]int{
		{3, 3, 9},    // duplicate
		{3, 16},      // one past the last rank
		{-1, 3},      // negative
		{3, 99},      // far out of range
		{5, 9, 5, 1}, // duplicate after sorting
	} {
		if _, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
			Algorithm: "Br_Lin", SourceRanks: bad, MsgBytes: 128,
		}, stpbcast.RunOptions{}); err == nil {
			t.Errorf("SourceRanks %v accepted", bad)
		}
	}
}

func TestAutoAlgorithm(t *testing.T) {
	m := stpbcast.NewParagon(6, 6)
	cfg := stpbcast.Config{
		Algorithm: stpbcast.AutoAlgorithm, Distribution: "Cr", Sources: 9, MsgBytes: 2048,
	}
	auto, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := stpbcast.Plan(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Algorithm == "" || dec.Algorithm == stpbcast.AutoAlgorithm {
		t.Fatalf("planner chose %q", dec.Algorithm)
	}
	// Auto must run exactly the planned algorithm.
	fixed, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm: dec.Algorithm, Distribution: "Cr", Sources: 9, MsgBytes: 2048,
	}, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Elapsed != fixed.Elapsed {
		t.Fatalf("Auto ran %v, planned algorithm %s runs %v", auto.Elapsed, dec.Algorithm, fixed.Elapsed)
	}
	// Identical inputs produce the identical plan (warm cache included).
	again, err := stpbcast.Plan(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Algorithm != dec.Algorithm {
		t.Fatalf("plan not stable: %s then %s", dec.Algorithm, again.Algorithm)
	}
	// The Auto choice never loses to a canonical fixed policy.
	repos, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm: "Repos_xy_source", Distribution: "Cr", Sources: 9, MsgBytes: 2048,
	}, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Elapsed > repos.Elapsed {
		t.Fatalf("Auto (%v) slower than Repos_xy_source (%v)", auto.Elapsed, repos.Elapsed)
	}
}

func TestAutoAlgorithmLive(t *testing.T) {
	m := stpbcast.NewParagon(3, 3)
	cfg := stpbcast.Config{Algorithm: stpbcast.AutoAlgorithm, Distribution: "E", Sources: 3, MsgBytes: 32}
	res, err := stpbcast.Run(m, stpbcast.EngineLive, cfg, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
}

func TestSimulateErrors(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	cases := []stpbcast.Config{
		{Algorithm: "nope", Distribution: "E", Sources: 2, MsgBytes: 8},
		{Algorithm: "Br_Lin", Distribution: "nope", Sources: 2, MsgBytes: 8},
		{Algorithm: "Br_Lin", Distribution: "E", Sources: 0, MsgBytes: 8},
		{Algorithm: "Br_Lin", Distribution: "E", Sources: 99, MsgBytes: 8},
		{Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: -1},
		{Algorithm: "Br_Lin", SourceRanks: []int{77}, MsgBytes: 8},
	}
	for i, cfg := range cases {
		if _, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{}); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunLiveDeliversPayloads(t *testing.T) {
	m := stpbcast.NewParagon(4, 5)
	cfg := stpbcast.Config{Algorithm: "Repos_xy_source", Distribution: "Cr", Sources: 9, MsgBytes: 0}
	res, err := stpbcast.Run(m, stpbcast.EngineLive, cfg, stpbcast.RunOptions{Payload: func(rank int) []byte {
		return []byte(fmt.Sprintf("payload-from-%02d", rank))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bundles) != 20 {
		t.Fatalf("bundles for %d ranks", len(res.Bundles))
	}
	for rank, got := range res.Bundles {
		if len(got) != 9 {
			t.Fatalf("rank %d holds %d messages, want 9", rank, len(got))
		}
		for origin, data := range got {
			want := []byte(fmt.Sprintf("payload-from-%02d", origin))
			if !bytes.Equal(data, want) {
				t.Fatalf("rank %d origin %d payload %q", rank, origin, data)
			}
		}
	}
}

func TestSimulateTraced(t *testing.T) {
	m := stpbcast.NewParagon(4, 4)
	res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: 64,
	}, stpbcast.RunOptions{Trace: stpbcast.NewTraceRecorder(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Count("send") == 0 || res.Trace.Count("recv") == 0 {
		t.Fatalf("trace empty: %v", res.Trace.Summary())
	}
}

func TestRegistriesExposed(t *testing.T) {
	if len(stpbcast.Algorithms()) < 12 {
		t.Errorf("only %d algorithms", len(stpbcast.Algorithms()))
	}
	if len(stpbcast.Distributions()) != 8 {
		t.Errorf("%d distributions", len(stpbcast.Distributions()))
	}
	if len(stpbcast.Experiments()) < 19 {
		t.Errorf("only %d experiments", len(stpbcast.Experiments()))
	}
	if _, err := stpbcast.AlgorithmByName("Br_Lin"); err != nil {
		t.Error(err)
	}
	if _, err := stpbcast.DistributionByName("Dl"); err != nil {
		t.Error(err)
	}
	if _, err := stpbcast.ExperimentByID("fig7"); err != nil {
		t.Error(err)
	}
}

func TestRowMajorAblationDiffers(t *testing.T) {
	snake, err := stpbcast.Run(stpbcast.NewParagon(8, 8), stpbcast.EngineSim, stpbcast.Config{
		Algorithm: "Br_Lin", Distribution: "C", Sources: 16, MsgBytes: 2048,
	}, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := stpbcast.Run(stpbcast.NewParagon(8, 8), stpbcast.EngineSim, stpbcast.Config{
		Algorithm: "Br_Lin", Distribution: "C", Sources: 16, MsgBytes: 2048, RowMajor: true,
	}, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if snake.Elapsed == rm.Elapsed {
		t.Error("indexing ablation had no effect (suspicious)")
	}
}

// rowMajorPlanned records that TestAutoPlansRowMajorApart has run in
// this process: the planner's memo outlives the test (-count), so only
// its first run probes.
var rowMajorPlanned bool

// TestAutoPlansRowMajorApart: the planner's memo keys the mesh's rank
// order. On the 10×10 Paragon at E(30), L=4096 the snake instance's plan
// is not the row-major instance's cheapest, so a row-major Plan after a
// snake one must probe its own instance, not reuse the snake choice.
func TestAutoPlansRowMajorApart(t *testing.T) {
	m := stpbcast.NewParagon(10, 10)
	cfg := stpbcast.Config{Distribution: "E", Sources: 30, MsgBytes: 4096}
	snake, err := stpbcast.Plan(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RowMajor = true
	rm, err := stpbcast.Plan(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rowMajorPlanned && rm.Source != "probe" {
		t.Errorf("row-major plan came from %q, want a probe", rm.Source)
	}
	rowMajorPlanned = true
	if rm.Key == snake.Key {
		t.Errorf("snake and row-major instances share the key %s", rm.Key)
	}
	simulated := func(alg string) float64 {
		run := cfg
		run.Algorithm = alg
		res, err := stpbcast.Run(m, stpbcast.EngineSim, run, stpbcast.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Elapsed) / 1e6
	}
	if got := simulated(rm.Algorithm); got != rm.ElapsedMs {
		t.Errorf("row-major plan %s at %v ms, but it simulates at %v ms", rm.Algorithm, rm.ElapsedMs, got)
	}
	if snakeChoice := simulated(snake.Algorithm); snakeChoice <= rm.ElapsedMs {
		t.Errorf("snake choice %s simulates at %v ms row-major, no dearer than the row-major plan %s at %v ms",
			snake.Algorithm, snakeChoice, rm.Algorithm, rm.ElapsedMs)
	}
}

func TestVariableMessageLengths(t *testing.T) {
	m := stpbcast.NewParagon(6, 6)
	uniform, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm: "Br_Lin", Distribution: "Dr", Sources: 6, MsgBytes: 4096,
	}, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm: "Br_Lin", Distribution: "Dr", Sources: 6, MsgBytes: 4096,
		MsgBytesFor: func(rank int) int {
			if rank%2 == 0 {
				return 6144
			}
			return 2048
		},
	}, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Elapsed == uniform.Elapsed {
		t.Error("per-source lengths had no effect (suspicious)")
	}
	// Same total volume: within ±35% (the paper's insignificance claim).
	ratio := float64(skewed.Elapsed) / float64(uniform.Elapsed)
	if ratio > 1.35 || ratio < 0.65 {
		t.Errorf("skewed/uniform ratio %.2f outside ±35%%", ratio)
	}
}

func TestHypercubeMachine(t *testing.T) {
	m := stpbcast.NewHypercube(5)
	res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm: "Br_Lin", Distribution: "E", Sources: 8, MsgBytes: 1024,
	}, stpbcast.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no simulated time")
	}
}

// TestSimHotLinksSurviveRecycling runs EngineSim cells of four shapes —
// Paragon 16×16, T3D-128, a 6-cube, Paragon 3×4 — alone, then all at
// once, four runs of each: every run hands its network's tables to the
// next once it has read its hot links and node loads, so each concurrent
// run must report exactly what it reported alone.
func TestSimHotLinksSurviveRecycling(t *testing.T) {
	cells := []struct {
		m   *stpbcast.Machine
		cfg stpbcast.Config
	}{
		{stpbcast.NewParagon(16, 16), stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 64, MsgBytes: 1024}},
		{stpbcast.NewT3D(128), stpbcast.Config{Algorithm: "PersAlltoAll", Distribution: "Cr", Sources: 40, MsgBytes: 4096}},
		{stpbcast.NewHypercube(6), stpbcast.Config{Algorithm: "2-Step", Distribution: "Sq", Sources: 16, MsgBytes: 2048}},
		{stpbcast.NewParagon(3, 4), stpbcast.Config{Algorithm: "Br_xy_source", Distribution: "R", Sources: 3, MsgBytes: 512}},
	}
	run := func(i int) *stpbcast.Result {
		res, err := stpbcast.Run(cells[i].m, stpbcast.EngineSim, cells[i].cfg, stpbcast.RunOptions{})
		if err != nil {
			t.Error(err)
		}
		return res
	}
	want := make([]*stpbcast.Result, len(cells))
	for i := range cells {
		want[i] = run(i)
	}
	got := make([]*stpbcast.Result, 4*len(cells))
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = run(k % len(cells))
		}()
	}
	wg.Wait()
	for k, res := range got {
		w := want[k%len(cells)]
		if res == nil || w == nil {
			continue
		}
		if res.Elapsed != w.Elapsed || !reflect.DeepEqual(res.HotLinks, w.HotLinks) || !reflect.DeepEqual(res.NodeLoad, w.NodeLoad) {
			t.Errorf("%s: a concurrent run gives %v, hot links %v; alone %v, %v", cells[k%len(cells)].cfg.Algorithm, res.Elapsed, res.HotLinks, w.Elapsed, w.HotLinks)
		}
	}
}

// TestMachineByNameCapsProcessors: NewMachineByName builds a 32×32
// machine and refuses 33×32, one row past its 1 024-processor cap, so no
// request can size an engine that grows as p² past it.
func TestMachineByNameCapsProcessors(t *testing.T) {
	if m, err := stpbcast.NewMachineByName("paragon", 32, 32); err != nil || m.P() != 1024 {
		t.Fatalf("32x32: %v, %v", m, err)
	}
	_, err := stpbcast.NewMachineByName("paragon", 33, 32)
	if err == nil || !strings.Contains(err.Error(), "exceeds 1024 processors") {
		t.Fatalf("33x32: err %v, want the 1024-processor cap", err)
	}
}

func TestRunTCPDeliversPayloads(t *testing.T) {
	m := stpbcast.NewParagon(3, 4)
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "Dr", Sources: 4}
	res, err := stpbcast.Run(m, stpbcast.EngineTCP, cfg, stpbcast.RunOptions{Payload: func(rank int) []byte {
		return []byte(fmt.Sprintf("wire-%02d", rank))
	}})
	if err != nil {
		t.Fatal(err)
	}
	for rank, got := range res.Bundles {
		if len(got) != 4 {
			t.Fatalf("rank %d holds %d messages", rank, len(got))
		}
		for origin, data := range got {
			if string(data) != fmt.Sprintf("wire-%02d", origin) {
				t.Fatalf("rank %d origin %d payload %q", rank, origin, data)
			}
		}
	}
}

func TestSimulateWithCustomAlgorithm(t *testing.T) {
	m := stpbcast.NewT3D(64)
	x, y, z := 4, 4, 4
	alg := core.BrDims([]int{x, y, z}, []int{2, 1, 0})
	res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Distribution: "E", Sources: 16, MsgBytes: 1024,
	}, stpbcast.RunOptions{Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no simulated time")
	}
	wrapped := core.WithDiscovery(core.BrLin())
	if _, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Distribution: "Sq", Sources: 9, MsgBytes: 256,
	}, stpbcast.RunOptions{Algorithm: wrapped}); err != nil {
		t.Fatal(err)
	}
}

// TestRunOptsGracefulFaultsKeepBundlesIntact drives the public chaos
// API on both real-byte engines: a duplicate+delay plan must degrade
// gracefully — delivered bundles identical to a fault-free run — with
// the injected events reported on the result.
func TestRunOptsGracefulFaultsKeepBundlesIntact(t *testing.T) {
	m := stpbcast.NewParagon(3, 4)
	cfg := stpbcast.Config{Algorithm: "Br_xy_source", Distribution: "Cr", Sources: 5, MsgBytes: 0}
	opts := stpbcast.RunOptions{
		Payload:     func(rank int) []byte { return []byte(fmt.Sprintf("chaos-%02d", rank)) },
		RecvTimeout: 30 * time.Second,
		Faults:      &stpbcast.FaultPlan{Seed: 9, Duplicate: 0.25, DelayProb: 0.25, MaxDelay: time.Millisecond},
	}
	for _, engine := range []stpbcast.Engine{stpbcast.EngineLive, stpbcast.EngineTCP} {
		res, err := stpbcast.Run(m, engine, cfg, opts)
		if err != nil {
			t.Fatalf("%s: graceful plan aborted: %v", engine, err)
		}
		if len(res.Faults) == 0 {
			t.Fatalf("%s: no faults injected; plan was inert", engine)
		}
		for rank, got := range res.Bundles {
			if len(got) != 5 {
				t.Fatalf("%s: rank %d holds %d messages, want 5", engine, rank, len(got))
			}
			for origin, data := range got {
				if want := fmt.Sprintf("chaos-%02d", origin); string(data) != want {
					t.Fatalf("%s: rank %d origin %d payload %q", engine, rank, origin, data)
				}
			}
		}
	}
}

// TestRunOptsKillReportsRootCause: a killed rank must surface through
// the public API as an error naming the rank, on both engines.
func TestRunOptsKillReportsRootCause(t *testing.T) {
	m := stpbcast.NewParagon(3, 4)
	cfg := stpbcast.Config{Algorithm: "Br_xy_source", Distribution: "Cr", Sources: 5, MsgBytes: 0}
	opts := stpbcast.RunOptions{
		Payload:     func(rank int) []byte { return []byte("x") },
		RecvTimeout: 2 * time.Second,
		Faults:      &stpbcast.FaultPlan{Kills: []stpbcast.FaultKill{{Rank: 3, Op: 1}}},
	}
	for _, engine := range []stpbcast.Engine{stpbcast.EngineLive, stpbcast.EngineTCP} {
		_, err := stpbcast.Run(m, engine, cfg, opts)
		if err == nil {
			t.Fatalf("%s: killed rank did not fail the run", engine)
		}
		if !strings.Contains(err.Error(), "rank 3 killed") {
			t.Fatalf("%s: kill diagnostic lost: %v", engine, err)
		}
	}
}

// TestRunOptsRecvDeadlineConvertsHang: total message loss plus a recv
// deadline must return a diagnostic instead of hanging, via the facade.
func TestRunOptsRecvDeadlineConvertsHang(t *testing.T) {
	m := stpbcast.NewParagon(2, 2)
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: 0}
	opts := stpbcast.RunOptions{
		Payload:     func(rank int) []byte { return []byte("y") },
		RecvTimeout: 200 * time.Millisecond,
		Faults:      &stpbcast.FaultPlan{Seed: 1, Drop: 1.0},
	}
	start := time.Now()
	_, err := stpbcast.Run(m, stpbcast.EngineLive, cfg, opts)
	if err == nil {
		t.Fatal("total message loss did not fail the run")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("deadline diagnostic lost: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("abort took %v", d)
	}
}
