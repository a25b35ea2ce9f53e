package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/tcp"
)

// WorkerEnv is the environment variable a spawned worker process finds
// the coordinator's control address in. Any binary that calls
// MaybeWorker early in main (stpworker, the benchmark, test binaries
// via TestMain) can serve as a cluster worker, so the coordinator's default
// spawn mode is re-executing its own binary.
const WorkerEnv = "STPBCAST_CLUSTER_WORKER"

// MaybeWorker turns the current process into a cluster worker when
// WorkerEnv is set: it serves the coordinator until the session closes,
// then exits. It returns (doing nothing) in ordinary processes; call it
// before flag parsing or test registration.
func MaybeWorker() {
	addr := os.Getenv(WorkerEnv)
	if addr == "" {
		return
	}
	if err := ServeWorker(addr); err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// ServeWorker dials the coordinator's control listener and serves one
// worker session: build the assigned partial machine, connect it, run
// collectives as directed, and tear down on close. It returns nil when
// the coordinator closes the session.
func ServeWorker(coordAddr string) error {
	nc, err := net.Dial("tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("cluster: worker dial coordinator %s: %w", coordAddr, err)
	}
	defer nc.Close()
	w := &worker{cc: newConn(nc)}
	if err := w.cc.send(msg{Type: "hello", PID: os.Getpid()}); err != nil {
		return fmt.Errorf("cluster: worker hello: %w", err)
	}
	return w.serve()
}

// worker is one worker process's state: its control connection, its
// partial machine, the instances it has compiled and what every run
// reuses — its done report and its ranks' bundle verdicts (the protocol
// loop runs one collective at a time, so none of it needs a lock).
type worker struct {
	cc         *conn
	m          *tcp.Machine
	lo, hi     int
	binds      core.Bindings
	done       doneMsg
	bundleErrs []error
}

func (w *worker) serve() error {
	defer func() {
		if w.m != nil {
			w.m.Close()
		}
	}()
	for {
		m, err := w.cc.recv(0) // the coordinator paces the session
		if err != nil {
			return fmt.Errorf("cluster: worker control connection: %w", err)
		}
		switch m.Type {
		case "assign":
			if err := w.assign(m.Assign); err != nil {
				w.cc.send(msg{Type: "err", Err: err.Error()})
				return err
			}
			w.cc.send(msg{Type: "addrs", Addrs: w.m.LocalAddrs()})
		case "connect":
			if err := w.m.ConnectMesh(context.Background(), m.Addrs); err != nil {
				w.cc.send(msg{Type: "err", Err: err.Error()})
				return err
			}
			w.cc.send(msg{Type: "ready"})
		case "reset":
			if err := w.m.ResetMesh(); err != nil {
				w.cc.send(msg{Type: "err", Err: err.Error()})
				return err
			}
			w.cc.send(msg{Type: "resetok"})
		case "run":
			if err := w.cc.sendDone(w.run(m.Run)); err != nil {
				return fmt.Errorf("cluster: worker done: %w", err)
			}
		case "close":
			w.cc.send(msg{Type: "closed"})
			return nil
		default:
			return fmt.Errorf("cluster: worker: unexpected %q message", m.Type)
		}
	}
}

func (w *worker) assign(a *assignMsg) error {
	if a == nil {
		return errors.New("cluster: empty assign")
	}
	if w.m != nil {
		return errors.New("cluster: worker already assigned")
	}
	links := a.Links
	if links == nil {
		links = [][2]int{} // no prefetch: each run's pairs are dialed before it starts
	}
	m, err := tcp.NewWorkerMachine(a.P, a.Lo, a.Hi, a.Leaders, tcp.Options{Links: links, ListenHost: a.ListenHost})
	if err != nil {
		return err
	}
	w.m, w.lo, w.hi = m, a.Lo, a.Hi
	return nil
}

// run executes one collective on the worker's ranks and reports this
// worker's share of it, its ranks' stats summed and its machine's
// counters included.
func (w *worker) run(rs *RunSpec) *doneMsg {
	d := &w.done
	*d = doneMsg{}
	if res, err := w.execute(rs); err != nil {
		d.Err = err.Error()
	} else {
		d.ElapsedNs, d.Totals = res.Elapsed.Nanoseconds(), res.Totals
	}
	d.LazyDials = w.m.LazyDials()
	d.ConnsOpened = w.m.ConnsOpened()
	d.PlannedPairs = w.m.PlannedPairs()
	return d
}

// execute dials the pairs the run's program needs and the plan lacked
// (each by its higher rank's worker, as at setup), then
// starts the run at once — peers that started first may already be
// sending, and the engine holds their frames until this machine arms
// the run's epoch — and verifies every local bundle, then hands the
// run's part arrays and received bytes back to the machine. A run the
// worker cannot execute leaves no peer waiting on it: the engine closes a
// broken mesh's connections when it refuses the run or fails its
// pre-run dials, and a spec the worker cannot build (the coordinator
// validated it, so only a worker of another build gets here) resets the
// mesh. Either way every peer fails fast and the coordinator's reset,
// reconnect and retry follows.
func (w *worker) execute(rs *RunSpec) (tcp.Result, error) {
	if rs == nil {
		rs = &RunSpec{}
	}
	spec, bound, err := w.bind(rs)
	if err != nil {
		return tcp.Result{}, errors.Join(err, w.m.ResetMesh())
	}
	coll := core.CollectiveOf(bound)
	if err := w.m.Prepare(context.Background(), core.ProgramOf(bound)); err != nil {
		return tcp.Result{}, err
	}
	if w.bundleErrs == nil {
		w.bundleErrs = make([]error, w.hi-w.lo)
	}
	bundleErrs := w.bundleErrs
	clear(bundleErrs)
	res, err := w.m.Run(tcp.Options{
		Epoch:       rs.Epoch,
		RecvTimeout: time.Duration(rs.RecvTimeoutNs),
		RunTimeout:  time.Duration(rs.RunTimeoutNs),
	}, func(pr *tcp.Proc) {
		// Every rank derives its own payload and the expected result from
		// the run spec alone.
		rank := pr.Rank()
		mine := core.InitialOn(pr, coll, spec, func(r int) []byte { return coll.Payload(spec.P(), r, rs.MsgBytes) })
		out := bound.Run(pr, spec, mine)
		bundleErrs[rank-w.lo] = coll.Check(spec, func(int) int { return rs.MsgBytes }, rank, out)
	})
	if err != nil {
		return tcp.Result{}, err
	}
	for _, err := range bundleErrs {
		if err != nil {
			return tcp.Result{}, fmt.Errorf("cluster: bundle check: %w", err)
		}
	}
	// Checked, the bundles are dropped: the next run's ranks and frames
	// get their part arrays, and its frames land in their bytes. The
	// coordinator sends that run only after every worker's done, so no
	// peer can send one of its frames before this.
	w.m.Recycle()
	w.m.Reclaim(w.m.Epoch())
	return res, nil
}

// bind resolves the run spec into its instance and the algorithm bound
// to it, compiled once per instance the worker runs.
func (w *worker) bind(rs *RunSpec) (core.Spec, core.Algorithm, error) {
	spec, alg, err := rs.resolve()
	if err != nil {
		return core.Spec{}, nil, err
	}
	return spec, w.binds.Bind(alg, spec), nil
}
