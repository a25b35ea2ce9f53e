// Hotspot: see the congestion arguments of the paper. 2-Step funnels
// every message through processor P0 and its links saturate; the
// message-combining Br_xy_source spreads the same broadcast across the
// whole mesh. This example runs both on a 12×12 simulated Paragon and
// renders the per-node link-load heatmaps side by side, plus the busiest
// links and the characteristic parameters of each run.
package main

import (
	"fmt"
	"log"
	"strings"

	stpbcast "repro"
	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/viz"
)

const (
	rows, cols = 12, 12
	s          = 36
	msgBytes   = 4096
)

func main() {
	machine := stpbcast.NewParagon(rows, cols)
	mesh, ok := machine.Topo.(*topology.Mesh2D)
	if !ok {
		log.Fatal("paragon machine is not a mesh")
	}

	type run struct {
		alg   string
		res   *stpbcast.Result
		loads []network.Time
		heat  string
	}
	var runs []run
	var globalMax network.Time
	for _, alg := range []string{"2-Step", "Br_xy_source"} {
		res, err := stpbcast.Run(machine, stpbcast.EngineSim, stpbcast.Config{
			Algorithm: alg, Distribution: "E", Sources: s, MsgBytes: msgBytes,
		}, stpbcast.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		loads := make([]network.Time, len(res.NodeLoad))
		for i, v := range res.NodeLoad {
			loads[i] = network.Time(v)
			if loads[i] > globalMax {
				globalMax = loads[i]
			}
		}
		runs = append(runs, run{alg: alg, res: res, loads: loads})
	}
	// One shared scale, so the two grids are directly comparable.
	for i := range runs {
		heat, err := viz.HeatmapWithMax(mesh, runs[i].loads, globalMax)
		if err != nil {
			log.Fatal(err)
		}
		runs[i].heat = heat
	}

	fmt.Printf("s-to-p broadcast on a %d×%d Paragon, E(%d), L=%d\n\n", rows, cols, s, msgBytes)
	fmt.Printf("%-*s   %s\n", cols, runs[0].alg, runs[1].alg)
	left := strings.Split(strings.TrimRight(runs[0].heat, "\n"), "\n")
	right := strings.Split(strings.TrimRight(runs[1].heat, "\n"), "\n")
	for i := range left {
		fmt.Printf("%-*s   %s\n", cols, left[i], right[i])
	}
	fmt.Println("\n(' ' idle … '@' the hottest node of either run — one shared scale)")

	for _, r := range runs {
		fmt.Printf("\n%s: %.2f ms simulated, congestion=%d, av_act_proc=%.1f\n",
			r.alg, float64(r.res.Elapsed.Nanoseconds())/1e6, r.res.Params.Congestion, r.res.Params.AvgActive)
		fmt.Println("busiest links:")
		for _, h := range r.res.HotLinks[:3] {
			fmt.Printf("  %-10v busy %7.3f ms over %3d transfers\n", h.Link, h.Busy.Milliseconds(), h.Transfers)
		}
	}
	fmt.Println("\n2-Step's heat concentrates at the gather root (top-left); the")
	fmt.Println("combining algorithm's load is an order of magnitude flatter —")
	fmt.Println("the congestion story behind the paper's Figure 3.")
}
