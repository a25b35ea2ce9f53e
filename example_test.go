package stpbcast_test

import (
	"fmt"

	stpbcast "repro"
)

// ExampleRun runs one s-to-p broadcast on the simulated 10×10
// Paragon and reports structural facts of the run (which are exact and
// deterministic; timings are too, but depend on the cost calibration).
func ExampleRun() {
	m := stpbcast.NewParagon(10, 10)
	res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm:    "Br_xy_source",
		Distribution: "E",
		Sources:      30,
		MsgBytes:     4096,
	}, stpbcast.RunOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("iterations: %d\n", len(res.ActiveProfile))
	fmt.Printf("congestion: %d\n", res.Params.Congestion)
	fmt.Printf("all active at peak: %v\n", maxOf(res.ActiveProfile) == m.P())
	// Output:
	// iterations: 8
	// congestion: 3
	// all active at peak: true
}

// ExampleRun_live moves real bytes through the goroutine engine and shows
// that the far corner processor received every source's payload.
func ExampleRun_live() {
	m := stpbcast.NewParagon(4, 4)
	res, err := stpbcast.Run(m, stpbcast.EngineLive, stpbcast.Config{
		Algorithm:    "Br_Lin",
		Distribution: "Dr",
		Sources:      4,
	}, stpbcast.RunOptions{Payload: func(rank int) []byte {
		return []byte(fmt.Sprintf("msg-%d", rank))
	}})
	if err != nil {
		fmt.Println(err)
		return
	}
	corner := res.Bundles[15]
	fmt.Printf("messages at corner: %d\n", len(corner))
	fmt.Printf("first source's payload: %s\n", corner[0])
	// Output:
	// messages at corner: 4
	// first source's payload: msg-0
}

// ExampleDistributionByName draws a distribution the way the paper's
// Figure 1 does.
func ExampleDistributionByName() {
	d, err := stpbcast.DistributionByName("Dr")
	if err != nil {
		fmt.Println(err)
		return
	}
	sources, err := d.Sources(4, 4, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(sources)
	// Output:
	// [0 5 10 15]
}

// ExampleNewTraceRecorder records the unified event stream of a
// simulated broadcast and inspects it through the public facade only:
// the recorder's Events, per-kind counts and drop accounting.
func ExampleNewTraceRecorder() {
	m := stpbcast.NewParagon(4, 4)
	rec := stpbcast.NewTraceRecorder(0) // 0 = unbounded retention
	res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
		Algorithm:    "Br_Lin",
		Distribution: "E",
		Sources:      4,
		MsgBytes:     256,
	}, stpbcast.RunOptions{Trace: rec})
	if err != nil {
		fmt.Println(err)
		return
	}
	var first stpbcast.TraceEvent = rec.Events[0]
	fmt.Printf("result echoes recorder: %v\n", res.Trace == rec)
	fmt.Printf("first event kind: %s\n", first.Kind)
	fmt.Printf("sends: %d recvs: %d\n", rec.Count("send"), rec.Count("recv"))
	fmt.Printf("dropped: %d\n", rec.Dropped())
	// Output:
	// result echoes recorder: true
	// first event kind: barrier
	// sends: 32 recvs: 32
	// dropped: 0
}

// ExampleOpen amortizes engine setup across back-to-back broadcasts: a
// Session stands the engine up once and every Run reuses it.
func ExampleOpen() {
	m := stpbcast.NewParagon(4, 4)
	s, err := stpbcast.Open(m, stpbcast.EngineLive, stpbcast.SessionOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "Dr", Sources: 4, MsgBytes: 32}
	for i := 0; i < 3; i++ {
		res, err := s.Run(cfg, stpbcast.RunOptions{})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("run %d delivered %d bundles\n", i, len(res.Bundles))
	}
	stats, _ := s.Close()
	fmt.Printf("runs: %d failures: %d\n", stats.Runs, stats.Failures)
	// Output:
	// run 0 delivered 16 bundles
	// run 1 delivered 16 bundles
	// run 2 delivered 16 bundles
	// runs: 3 failures: 0
}

func maxOf(v []int) int {
	m := 0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
