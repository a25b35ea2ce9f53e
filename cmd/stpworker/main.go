// Command stpworker runs a multi-process broadcast cluster on the TCP
// engine: one coordinator process and N worker processes, each owning a
// contiguous rank range of the mesh; a worker's own ranks exchange
// through memory, and only pairs that cross workers get a socket (one
// per pair). -sparse prefetches the
// algorithm's route plan at start-up; without it the workers dial only
// the links between their leader ranks at start-up, and each run's
// pairs are dialed before it starts.
//
// Coordinator mode (the default) spawns its workers by re-executing
// its own binary:
//
//	stpworker -workers 4 -rows 8 -cols 8 -alg Br_Lin -dist E -s 4 -bytes 1024 -sparse
//	stpworker -workers 4 -rows 16 -cols 16 -sparse -runs 5 -fail-on-lazy
//
// Worker mode serves one externally started coordinator and exits when
// the cluster session closes:
//
//	stpworker -coord 127.0.0.1:7500
//
// Adoption stitches the two together across terminals (or hosts, with
// -host set to an externally visible address):
//
//	stpworker -workers 2 -adopt -listen 127.0.0.1:7500 ...   # terminal 1
//	stpworker -coord 127.0.0.1:7500                          # terminals 2, 3
//
// -fail-on-lazy (with -sparse) turns the zero-lazy-dials invariant into
// the exit status: if any pair was dialed before a run because the route
// plan lacked it, the coordinator exits 1. CI's cluster smoke test runs
// exactly this, and a leg without -sparse.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/topology"
)

func main() {
	// A coordinator may have re-executed this binary as a worker; route
	// such copies into worker mode before flag parsing.
	cluster.MaybeWorker()

	coord := flag.String("coord", "", "worker mode: serve the coordinator at this control address")
	workers := flag.Int("workers", 4, "worker process count")
	adopt := flag.Bool("adopt", false, "adopt externally started workers instead of spawning")
	listen := flag.String("listen", "", "control listener address (required with -adopt; default ephemeral)")
	host := flag.String("host", "", "host the workers' mesh listeners bind to (default loopback)")
	rows := flag.Int("rows", 8, "mesh rows")
	cols := flag.Int("cols", 8, "mesh cols")
	alg := flag.String("alg", "Br_Lin", "broadcast algorithm (paper name)")
	distName := flag.String("dist", "E", "source distribution (paper name)")
	sources := flag.Int("s", 4, "source processor count")
	msgBytes := flag.Int("bytes", 1024, "per-source message bytes")
	sparse := flag.Bool("sparse", false, "prefetch the algorithm's route plan at start-up (without it each run's pairs are dialed before it starts)")
	runs := flag.Int("runs", 3, "broadcast repetitions over the warm cluster")
	timeout := flag.Duration("timeout", time.Minute, "per-receive timeout")
	failOnLazy := flag.Bool("fail-on-lazy", false, "exit 1 if any pair was dialed before a run because the route plan lacked it")
	flag.Parse()
	if flag.NArg() > 0 {
		// The flag package stops at the first stray argument, so every
		// flag after it would be dropped without a word.
		fmt.Fprintf(os.Stderr, "stpworker: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *coord != "" {
		if err := cluster.ServeWorker(*coord); err != nil {
			fatal(err)
		}
		return
	}
	if err := run(*workers, *adopt, *listen, *host, *rows, *cols, *alg, *distName,
		*sources, *msgBytes, *sparse, *runs, *timeout, *failOnLazy); err != nil {
		fatal(err)
	}
}

func run(workers int, adopt bool, listen, host string, rows, cols int, algName, distName string,
	sources, msgBytes int, sparse bool, runs int, timeout time.Duration, failOnLazy bool) error {
	m := machine.Paragon(rows, cols)
	d, err := dist.ByName(distName)
	if err != nil {
		return err
	}
	srcs, err := d.Sources(rows, cols, sources)
	if err != nil {
		return err
	}
	alg, err := core.ByName(algName)
	if err != nil {
		return err
	}
	spec := core.Spec{Rows: rows, Cols: cols, Sources: srcs, Indexing: topology.SnakeRowMajor}
	if err := spec.Validate(rows * cols); err != nil {
		return err
	}

	var links [][2]int // nil: no prefetch beyond the leader links
	if sparse {
		if links, err = plan.Routes(m, alg, spec, msgBytes); err != nil {
			return err
		}
	}

	cs := cluster.Spec{
		Workers: workers, P: rows * cols, Links: links,
		Adopt: adopt, ControlAddr: listen, ListenHost: host,
	}
	if adopt {
		if listen == "" {
			return fmt.Errorf("stpworker: -adopt needs -listen so the workers know where to dial")
		}
		cs.OnListen = func(addr string) {
			fmt.Printf("coordinator listening on %s; start %d x  stpworker -coord %s\n", addr, workers, addr)
		}
	}
	setupStart := time.Now()
	c, err := cluster.Start(cs)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("cluster up in %v: p=%d across %d workers (pids %v), %d inter-worker links\n",
		time.Since(setupStart).Round(time.Millisecond), rows*cols, workers, c.WorkerPIDs(), c.InterLinks())
	for i, rg := range c.Ranges() {
		fmt.Printf("  worker %d: ranks [%d,%d)\n", i, rg[0], rg[1])
	}

	rs := cluster.RunSpec{
		Rows: rows, Cols: cols, Sources: srcs, Algorithm: alg.Name(),
		MsgBytes: msgBytes, RecvTimeoutNs: int64(timeout),
	}
	var res *cluster.Result
	for i := 0; i < runs; i++ {
		if res, err = c.Run(rs); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		fmt.Printf("run %d: %s %s s=%d L=%dB  elapsed %v\n",
			i, alg.Name(), distName, len(srcs), msgBytes, res.Elapsed.Round(10*time.Microsecond))
	}
	mesh := "unplanned"
	if sparse {
		mesh = fmt.Sprintf("sparse (%d planned links)", len(links))
	}
	fmt.Printf("mesh %s: %d planned pairs (each crosses workers and counts at both endpoints; a worker's own ranks exchange through memory), %d conns opened, %d lazy dials, %d coordinator resets\n",
		mesh, res.PlannedPairs, res.ConnsOpened, res.LazyDials, c.Resets())
	if failOnLazy && res.LazyDials != 0 {
		return fmt.Errorf("stpworker: %d pairs were dialed before a run because the route plan lacked them (want 0 lazy dials)", res.LazyDials)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stpworker:", err)
	os.Exit(1)
}
