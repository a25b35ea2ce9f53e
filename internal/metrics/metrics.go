// Package metrics derives the paper's characteristic parameters (the
// Figure 2 table) of a simulated run:
//
//	congestion   — the maximum number of sends and receives any processor
//	               handles in one iteration;
//	wait         — the maximum number of times a processor waits for data
//	               before proceeding;
//	#send/rec    — the maximum total sends+receives of any processor;
//	av_msg_lgth  — the maximum over processors of the average per-iteration
//	               message volume (Σᵢ lᵢ)/t;
//	av_act_proc  — the average over iterations of the number of processors
//	               that communicated at all.
//
// As in the paper, the per-iteration ones are read off the algorithm: the
// facts of the comm.Program the run replayed (Program.Facts), not a
// ledger the run keeps. The run supplies only per-processor totals: waits
// (which depend on the clock) and bytes.
package metrics

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/network"
	"repro/internal/sim"
)

// Params holds the five Figure-2 parameters plus the run's makespan.
type Params struct {
	Elapsed    network.Time
	Congestion int
	Wait       int
	SendRec    int
	AvgMsgLen  float64
	AvgActive  float64
	Iterations int
}

// FromResult computes the parameters of a finished run: congestion,
// #send/rec, av_act_proc and the iteration count from the program it
// ran, wait and av_msg_lgth from its per-processor totals.
func FromResult(res *sim.Result) Params {
	st := res.Program.Facts()
	p := Params{Elapsed: res.Elapsed, Congestion: st.Congestion, SendRec: st.SendRec, Iterations: st.Iterations}
	iters := float64(max(st.Iterations, 1))
	for _, ps := range res.Procs {
		p.Wait = max(p.Wait, ps.WaitCount)
		p.AvgMsgLen = max(p.AvgMsgLen, float64(ps.SendBytes+ps.RecvBytes)/iters)
	}
	var sum int
	for _, a := range st.Active {
		sum += a
	}
	p.AvgActive = float64(sum) / iters
	return p
}

// String renders the parameters on one line for tables and logs.
func (p Params) String() string {
	return fmt.Sprintf("t=%.3fms cong=%d wait=%d send/rec=%d av_msg=%.0fB av_act=%.1f iters=%d",
		p.Elapsed.Milliseconds(), p.Congestion, p.Wait, p.SendRec, p.AvgMsgLen, p.AvgActive, p.Iterations)
}

// ActiveProfile returns the number of active processors in each iteration,
// the growth curve the ideal distributions are designed to maximize: a
// copy the caller owns.
func ActiveProfile(res *sim.Result) []int { return slices.Clone(res.Program.Facts().Active) }

// FormatProfile renders an active-processor profile compactly.
func FormatProfile(profile []int) string {
	parts := make([]string, len(profile))
	for i, v := range profile {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, "→")
}
