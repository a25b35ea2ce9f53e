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
// As in the paper, the per-iteration ones are read off the algorithm: each
// rank's operations in the comm.Program the run replayed (StaticOf), not a
// ledger the run keeps. The run supplies only per-processor totals: sends
// and receives, waits (which depend on the clock) and bytes.
package metrics

import (
	"fmt"
	"strings"

	"repro/internal/comm"
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

// Static holds what a program says of its iterations before it runs.
type Static struct {
	Iterations int   // the largest iteration marked plus one
	Congestion int   // the most sends+receives of one rank in one iteration
	SendRec    int   // the most sends+receives of one rank
	Active     []int // the ranks that send or receive, per iteration
}

// StaticOf walks every rank's operations of prog. An operation
// communicates when prog.Partner names a peer, and belongs to the
// iteration of the last OpIter before it — iteration 0 before any.
func StaticOf(prog *comm.Program) Static {
	var st Static
	var ops []int // one rank's sends+receives per iteration
	for rank := range prog.P() {
		ops = ops[:0]
		it, total := 0, 0
		for _, op := range prog.Ops(rank) {
			peer, _ := prog.Partner(op)
			switch {
			case op.Kind == comm.OpIter:
				it = op.Arg()
			case peer < 0:
				continue
			}
			for len(ops) <= it {
				ops = append(ops, 0)
			}
			if peer >= 0 {
				ops[it]++
				total++
			}
		}
		st.SendRec = max(st.SendRec, total)
		for len(st.Active) < len(ops) {
			st.Active = append(st.Active, 0)
		}
		for i, n := range ops {
			st.Congestion = max(st.Congestion, n)
			if n > 0 {
				st.Active[i]++
			}
		}
	}
	st.Iterations = len(st.Active)
	return st
}

// FromResult computes the parameters of a finished run: congestion,
// av_act_proc and the iteration count from the program it ran, the rest
// from its per-processor totals.
func FromResult(res *sim.Result) Params {
	st := StaticOf(res.Program)
	p := Params{Elapsed: res.Elapsed, Congestion: st.Congestion, Iterations: st.Iterations}
	iters := float64(max(st.Iterations, 1))
	for _, ps := range res.Procs {
		p.SendRec = max(p.SendRec, ps.Sends+ps.Recvs)
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
// the growth curve the ideal distributions are designed to maximize.
func ActiveProfile(res *sim.Result) []int { return StaticOf(res.Program).Active }

// FormatProfile renders an active-processor profile compactly.
func FormatProfile(profile []int) string {
	parts := make([]string, len(profile))
	for i, v := range profile {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, "→")
}
