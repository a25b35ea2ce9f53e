package stpbcast_test

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	stpbcast "repro"
)

// TestMain routes coordinator re-executions of this test binary into
// worker mode: the cluster session tests spawn real worker OS
// processes, and MaybeClusterWorker is how any binary — this one
// included — serves as one.
func TestMain(m *testing.M) {
	stpbcast.MaybeClusterWorker()
	os.Exit(m.Run())
}

// TestClusterSession drives a multi-process broadcast through the
// public Session API: RoutesFor's sparse plan, four spawned worker
// processes, several runs over the warm cluster, zero surprises in the
// stats.
func TestClusterSession(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := stpbcast.NewParagon(8, 8)
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: 1024}
	links, err := stpbcast.RoutesFor(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{
		Links:   links,
		Cluster: &stpbcast.ClusterSpec{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	opts := stpbcast.RunOptions{RecvTimeout: time.Minute}
	for i := 0; i < 2; i++ {
		res, err := s.Run(cfg, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("run %d: non-positive elapsed %v", i, res.Elapsed)
		}
		if res.Bundles != nil {
			t.Fatalf("run %d: cluster run returned bundles; payload bytes crossed the control plane", i)
		}
		res.Release() // the workers recycle their own storage: a no-op here
	}
	stats, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 2 || stats.Failures != 0 || stats.Reconnects != 0 {
		t.Fatalf("stats = %+v, want 2 clean runs with no reconnects", stats)
	}
	if stats.Bytes == 0 {
		t.Fatal("cluster runs reported zero payload bytes sent")
	}
}

// TestClusterSessionRejections: the option surface a distributed
// session cannot honor must fail fast with a named reason, and the
// cluster engine gate must hold at Open.
func TestClusterSessionRejections(t *testing.T) {
	if _, err := stpbcast.Open(stpbcast.NewParagon(2, 2), stpbcast.EngineLive, stpbcast.SessionOptions{
		Cluster: &stpbcast.ClusterSpec{Workers: 2},
	}); err == nil || !strings.Contains(err.Error(), "EngineTCP") {
		t.Fatalf("live cluster open error = %v", err)
	}

	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := stpbcast.NewParagon(2, 2)
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{
		Cluster: &stpbcast.ClusterSpec{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: 64}
	cases := []struct {
		name string
		cfg  stpbcast.Config
		opts stpbcast.RunOptions
		want string
	}{
		{"payload", cfg, stpbcast.RunOptions{Payload: func(int) []byte { return nil }}, "Payload"},
		{"trace", cfg, stpbcast.RunOptions{Trace: stpbcast.NewTraceRecorder(0)}, "tracing"},
		{"faults", cfg, stpbcast.RunOptions{Faults: &stpbcast.FaultPlan{}}, "fault"},
		{"zero-bytes", stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 2}, stpbcast.RunOptions{}, "MsgBytes"},
	}
	for _, tc := range cases {
		if _, err := s.Run(tc.cfg, tc.opts); !errors.Is(err, stpbcast.ErrInvalidRun) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want ErrInvalidRun mentioning %q", tc.name, err, tc.want)
		}
	}
	// The rejections must not have consumed the cluster, nor counted as
	// runs.
	if st := s.Stats(); st.Runs != 0 || st.Failures != 0 {
		t.Errorf("stats %+v after rejected runs, want none counted", st)
	}
	if _, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: time.Minute}); err != nil {
		t.Fatalf("cluster unusable after rejected runs: %v", err)
	}
}

// TestClusterSessionRunsRepositioning: the repositioning and partitioning
// algorithms are full broadcasts — every rank ends with every source's
// message under its original origin — so a cluster runs them like any
// other registry name and the workers' byte-exact bundle verification
// passes. Three workers over sixteen ranks make the ranges uneven, so the
// machine halves of Part_* straddle worker boundaries. The same cluster
// then runs one entry of every other collective, each verified by the
// workers against its own postcondition.
func TestClusterSessionRunsRepositioning(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	s, err := stpbcast.Open(stpbcast.NewParagon(4, 4), stpbcast.EngineTCP, stpbcast.SessionOptions{
		Cluster: &stpbcast.ClusterSpec{Workers: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var cfgs []stpbcast.Config
	for _, name := range []string{"Repos_Lin", "Repos_xy_source", "Repos_xy_dim", "Part_Lin", "Part_xy_source", "Part_xy_dim"} {
		cfgs = append(cfgs, stpbcast.Config{Algorithm: name, Distribution: "Cr", Sources: 5, MsgBytes: 256})
	}
	for _, coll := range stpbcast.Collectives() {
		if coll != stpbcast.CollectiveBroadcast {
			cfgs = append(cfgs, stpbcast.Config{Collective: coll, Algorithm: stpbcast.AlgorithmsFor(coll)[0].Name(), MsgBytes: 24})
		}
	}
	for _, cfg := range cfgs {
		if _, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: time.Minute}); err != nil {
			t.Errorf("%s: %v", cfg.Algorithm, err)
		}
	}
	stats, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != len(cfgs) || stats.Failures != 0 || stats.Reconnects != 0 {
		t.Fatalf("stats = %+v, want %d clean runs with no reconnects", stats, len(cfgs))
	}
}

// TestClusterSessionAuto is the regression test for Auto on a cluster:
// on the 16×16 Paragon the planner picks Repos_xy_source for Cr(32) at
// 1 KiB, which the workers used to refuse by name ("repositions rather
// than broadcasts"), so the one configuration that names no algorithm
// failed wherever a repositioning algorithm is the best one.
func TestClusterSessionAuto(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := stpbcast.NewParagon(16, 16)
	cfg := stpbcast.Config{Algorithm: stpbcast.AutoAlgorithm, Distribution: "Cr", Sources: 32, MsgBytes: 1024}
	dec, err := stpbcast.Plan(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dec.Algorithm, "Repos_") {
		t.Fatalf("the planner picks %s here; the test needs an instance where it picks a repositioning algorithm", dec.Algorithm)
	}
	links, err := stpbcast.RoutesFor(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stpbcast.Open(m, stpbcast.EngineTCP, stpbcast.SessionOptions{
		Links:   links,
		Cluster: &stpbcast.ClusterSpec{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(cfg, stpbcast.RunOptions{RecvTimeout: time.Minute}); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 1 || stats.Failures != 0 || stats.Reconnects != 0 {
		t.Fatalf("stats = %+v, want one clean run with no reconnects", stats)
	}
}
