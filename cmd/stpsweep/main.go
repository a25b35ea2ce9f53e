// Command stpsweep runs custom parameter sweeps outside the paper's fixed
// figures: any machine, any set of algorithms and distributions, any
// source counts and message lengths, CSV to stdout.
//
// Usage:
//
//	stpsweep -machine paragon -rows 16 -cols 16 \
//	         -algs Br_Lin,Repos_xy_source -dists E,Cr \
//	         -s 16,32,64,128 -bytes 4096
//	stpsweep -machine t3d -p 256 -algs PersAlltoAll -dists E -s 8,64 -bytes 1024,8192
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	stpbcast "repro"
	"repro/internal/par"
)

func main() {
	machineName := flag.String("machine", "paragon", "paragon | paragon-mpi | t3d | t3d-random | hypercube")
	rows := flag.Int("rows", 10, "mesh rows (paragon)")
	cols := flag.Int("cols", 10, "mesh columns (paragon)")
	p := flag.Int("p", 128, "processors (t3d)")
	dim := flag.Int("dim", 6, "dimension (hypercube)")
	seed := flag.Int64("seed", 1, "placement seed (t3d-random)")
	algsFlag := flag.String("algs", "Br_Lin", "comma-separated algorithm names")
	distsFlag := flag.String("dists", "E", "comma-separated distribution names")
	sFlag := flag.String("s", "16", "comma-separated source counts")
	bytesFlag := flag.String("bytes", "4096", "comma-separated message lengths")
	parallel := flag.Int("parallel", 0, "max concurrent sweep cells (0 = GOMAXPROCS, 1 = serial); row order is identical at every setting")
	flag.Parse()

	stpbcast.SetParallelism(*parallel)

	var m *stpbcast.Machine
	switch *machineName {
	case "paragon":
		m = stpbcast.NewParagon(*rows, *cols)
	case "paragon-mpi":
		m = stpbcast.NewParagonMPI(*rows, *cols)
	case "t3d":
		m = stpbcast.NewT3D(*p)
	case "t3d-random":
		m = stpbcast.NewT3DRandom(*p, *seed)
	case "hypercube":
		m = stpbcast.NewHypercube(*dim)
	default:
		fatal(fmt.Errorf("unknown machine %q", *machineName))
	}

	algs := splitList(*algsFlag)
	dists := splitList(*distsFlag)
	ss, err := splitInts(*sFlag)
	if err != nil {
		fatal(err)
	}
	ls, err := splitInts(*bytesFlag)
	if err != nil {
		fatal(err)
	}

	// Cells fan out across the bounded worker pool; rows are buffered by
	// index so the CSV comes out in the same order as a serial sweep.
	type cell struct {
		alg, d string
		s, l   int
	}
	var cells []cell
	for _, alg := range algs {
		for _, d := range dists {
			for _, s := range ss {
				for _, l := range ls {
					cells = append(cells, cell{alg, d, s, l})
				}
			}
		}
	}
	out := make([]string, len(cells))
	if err := par.ForEach(len(cells), func(i int) error {
		c := cells[i]
		res, err := stpbcast.Run(m, stpbcast.EngineSim, stpbcast.Config{
			Algorithm: c.alg, Distribution: c.d, Sources: c.s, MsgBytes: c.l,
		}, stpbcast.RunOptions{})
		if err != nil {
			return err
		}
		pm := res.Params
		out[i] = fmt.Sprintf("%s,%s,%s,%d,%d,%.4f,%d,%d,%d,%.0f,%.1f",
			m.Name, c.alg, c.d, c.s, c.l,
			float64(res.Elapsed.Nanoseconds())/1e6,
			pm.Congestion, pm.Wait, pm.SendRec, pm.AvgMsgLen, pm.AvgActive)
		return nil
	}); err != nil {
		fatal(err)
	}
	fmt.Println("machine,algorithm,distribution,sources,msg_bytes,time_ms,congestion,wait,send_rec,av_msg_lgth,av_act_proc")
	for _, row := range out {
		fmt.Println(row)
	}
}

func splitList(v string) []string {
	var out []string
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func splitInts(v string) ([]int, error) {
	var out []int
	for _, part := range splitList(v) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("stpsweep: bad integer %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stpsweep:", err)
	os.Exit(1)
}
