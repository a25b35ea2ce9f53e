// Package metrics derives the paper's characteristic parameters (the
// Figure 2 table) from a simulated run:
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
package metrics

import (
	"fmt"
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

// FromResult computes the parameters of a finished run.
func FromResult(res *sim.Result) Params {
	p := Params{Elapsed: res.Elapsed, Iterations: res.Iterations}
	iters := res.Iterations
	if iters == 0 {
		iters = 1
	}
	activePerIter := make([]int, res.Iterations)
	for _, ps := range res.Procs {
		if sr := ps.Sends + ps.Recvs; sr > p.SendRec {
			p.SendRec = sr
		}
		if ps.WaitCount > p.Wait {
			p.Wait = ps.WaitCount
		}
		var bytes int64
		for i, it := range ps.Iters {
			if c := it.Sends + it.Recvs; c > p.Congestion {
				p.Congestion = c
			}
			if it.Active() {
				activePerIter[i]++
			}
			bytes += it.Bytes
		}
		if avg := float64(bytes) / float64(iters); avg > p.AvgMsgLen {
			p.AvgMsgLen = avg
		}
	}
	var sum int
	for _, a := range activePerIter {
		sum += a
	}
	p.AvgActive = float64(sum) / float64(iters)
	return p
}

// String renders the parameters on one line for tables and logs.
func (p Params) String() string {
	return fmt.Sprintf("t=%.3fms cong=%d wait=%d send/rec=%d av_msg=%.0fB av_act=%.1f iters=%d",
		p.Elapsed.Milliseconds(), p.Congestion, p.Wait, p.SendRec, p.AvgMsgLen, p.AvgActive, p.Iterations)
}

// ActiveProfile returns the number of active processors in each iteration,
// the growth curve the ideal distributions are designed to maximize.
func ActiveProfile(res *sim.Result) []int {
	out := make([]int, res.Iterations)
	for _, ps := range res.Procs {
		for i, it := range ps.Iters {
			if it.Active() {
				out[i]++
			}
		}
	}
	return out
}

// FormatProfile renders an active-processor profile compactly.
func FormatProfile(profile []int) string {
	parts := make([]string, len(profile))
	for i, v := range profile {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, "→")
}
