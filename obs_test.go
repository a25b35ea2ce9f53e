package stpbcast_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	stpbcast "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

// kindSeq extracts each rank's ordered event sequence, keeping only the
// kinds every engine emits identically: send, recv and barrier follow the
// algorithm's program order on all engines, while wait is timing-dependent
// and combine exists only under the simulator's virtual clock.
func kindSeq(events []obs.Event, p int) [][]string {
	out := make([][]string, p)
	for _, e := range events {
		switch e.Kind {
		case obs.KindSend, obs.KindRecv:
			out[e.Rank] = append(out[e.Rank], fmt.Sprintf("%s:%d", e.Kind, e.Peer))
		case obs.KindBarrier:
			out[e.Rank] = append(out[e.Rank], "barrier")
		}
	}
	return out
}

// TestCrossEngineEventSequence runs one algorithm on the simulator, the
// live goroutine engine and the TCP engine, and asserts all three trace
// the same per-rank sequence of communication events — the unified event
// model's core invariant.
func TestCrossEngineEventSequence(t *testing.T) {
	m := stpbcast.NewParagon(2, 2)
	cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: 64}
	payload := func(rank int) []byte { return bytes.Repeat([]byte{byte(rank)}, 64) }

	simRec := trace.NewRecorder(0)
	if _, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{Trace: simRec}); err != nil {
		t.Fatal(err)
	}
	simSeq := kindSeq(simRec.Events, m.P())

	for _, engine := range []stpbcast.Engine{stpbcast.EngineLive, stpbcast.EngineTCP} {
		rec := trace.NewRecorder(0)
		opts := stpbcast.RunOptions{Payload: payload, Trace: rec, RecvTimeout: 10 * time.Second}
		if _, err := stpbcast.Run(m, engine, cfg, opts); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		seq := kindSeq(rec.Events, m.P())
		for r := range simSeq {
			if !reflect.DeepEqual(simSeq[r], seq[r]) {
				t.Errorf("rank %d: sim traced %v, %s traced %v", r, simSeq[r], engine, seq[r])
			}
		}
		// Wall clocks must be stamped and non-decreasing per rank.
		if !obs.HasWall(rec.Events) {
			t.Errorf("%s: no wall-clock timestamps", engine)
		}
	}
}

// TestTraceFaultsInStream asserts injected faults land in the same event
// stream as traffic, tagged with the fault kind and stamped on the run's
// clock. The TCP row is a one-shot run, whose Prepare dials every pair
// before the run starts: a fault stamped on a clock started before those
// dials would read later than the run's last engine event.
func TestTraceFaultsInStream(t *testing.T) {
	for _, tc := range []struct {
		engine     stpbcast.Engine
		rows, cols int
	}{
		{stpbcast.EngineLive, 2, 2},
		{stpbcast.EngineTCP, 4, 4},
	} {
		t.Run(tc.engine.String(), func(t *testing.T) {
			m := stpbcast.NewParagon(tc.rows, tc.cols)
			cfg := stpbcast.Config{Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: 64}
			rec := trace.NewRecorder(0)
			plan := stpbcast.FaultPlan{Seed: 7, Duplicate: 0.5}
			res, err := stpbcast.Run(m, tc.engine, cfg, stpbcast.RunOptions{
				Trace:       rec,
				Faults:      &plan,
				RecvTimeout: 10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Faults) == 0 {
				t.Fatal("fault plan injected nothing")
			}
			if got := rec.Count(obs.KindFault); got != len(res.Faults) {
				t.Fatalf("stream has %d fault events, injector reports %d", got, len(res.Faults))
			}
			injected := map[[3]int]bool{}
			for _, f := range res.Faults {
				injected[[3]int{f.Src, f.Dst, f.Msg}] = true
			}
			var lastEngine, lastFault int64
			for _, e := range rec.Events {
				if e.Kind != obs.KindFault {
					lastEngine = max(lastEngine, e.Wall)
					continue
				}
				if e.Fault != "duplicate" || !injected[[3]int{e.Rank, e.Peer, e.Seq}] {
					t.Fatalf("fault event mis-tagged: %+v", e)
				}
				lastFault = max(lastFault, e.Wall)
			}
			if lastFault > lastEngine {
				t.Fatalf("a fault is stamped at %v, after the run's last engine event at %v",
					time.Duration(lastFault), time.Duration(lastEngine))
			}
		})
	}
}
