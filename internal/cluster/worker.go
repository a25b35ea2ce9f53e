package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/tcp"
	"repro/internal/topology"
)

// WorkerEnv is the environment variable a spawned worker process finds
// the coordinator's control address in. Any binary that calls
// MaybeWorker early in main (stpworker, stpbench, test binaries via
// TestMain) can serve as a cluster worker, so the coordinator's default
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
// broadcasts as directed, and tear down on close. It returns nil when
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
// partial machine, and the channel the protocol loop uses to release
// (or abort) a run blocked in the engine's start gate.
type worker struct {
	cc      *conn
	m       *tcp.Machine
	lo, hi  int
	startCh chan bool
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
			w.startCh = make(chan bool, 1)
			go w.run(m.Run, w.startCh)
		case "start":
			w.startCh <- m.Abort
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
	if a.FullMesh {
		links = nil
	} else if links == nil {
		links = [][2]int{} // empty plan: everything would be lazy
	}
	m, err := tcp.NewWorkerMachine(a.P, a.Lo, a.Hi, a.Leaders, tcp.Options{
		Links:        links,
		ListenHost:   a.ListenHost,
		DialAttempts: a.DialAttempts,
		DialBackoff:  time.Duration(a.DialBackoffNs),
	})
	if err != nil {
		return err
	}
	w.m, w.lo, w.hi = m, a.Lo, a.Hi
	return nil
}

// run executes one broadcast on the worker's ranks. The protocol with
// the coordinator is armed → start → done, with the armed ack sent from
// inside the engine's start gate so the coordinator knows this worker's
// mailboxes accept the run's epoch before any worker sends a frame.
func (w *worker) run(rs *RunSpec, startCh chan bool) {
	finish := func(d doneMsg) {
		d.LazyDials = w.m.LazyDials()
		d.ConnsOpened = w.m.ConnsOpened()
		d.PlannedPairs = w.m.PlannedPairs()
		w.cc.send(msg{Type: "done", Done: &d})
	}
	// A worker whose mesh a previous run broke (or whose run spec is
	// unusable) still joins the armed/start rendezvous — the coordinator
	// aborts the start and drives recovery — so the control protocol
	// never deadlocks on a half-armed cluster.
	bail := func(broken bool, err error) {
		// A broken mesh is retryable (the coordinator resets and
		// reconnects); only a non-broken failure — a run spec no reset
		// can fix — travels as the armed ack's fatal error.
		a := msg{Type: "armed", Broken: broken}
		if !broken {
			a.Err = errString(err)
		}
		w.cc.send(a)
		<-startCh
		finish(doneMsg{Err: errString(err)})
	}
	if rs == nil {
		bail(false, errors.New("cluster: empty run spec"))
		return
	}
	spec, alg, err := w.buildRun(rs)
	if err != nil {
		bail(false, err)
		return
	}
	if w.m.Broken() {
		bail(true, errors.New("cluster: mesh broken; needs coordinator reset"))
		return
	}

	nlocal := w.hi - w.lo
	bundles := make([]bundleCheck, nlocal)
	body := func(pr *tcp.Proc) {
		out := alg.Run(pr, spec, core.InitialMessage(spec, pr.Rank(), workerPayload(pr.Rank(), rs.MsgBytes)))
		bundles[pr.Rank()-w.lo] = checkBundle(spec, rs.MsgBytes, out)
	}

	armedSent := false
	res, err := w.m.Run(tcp.Options{
		Epoch:       rs.Epoch,
		RecvTimeout: time.Duration(rs.RecvTimeoutNs),
		RunTimeout:  time.Duration(rs.RunTimeoutNs),
		StartGate: func() error {
			armedSent = true
			if err := w.cc.send(msg{Type: "armed"}); err != nil {
				return fmt.Errorf("armed ack: %w", err)
			}
			if abort := <-startCh; abort {
				return errors.New("coordinator aborted start")
			}
			return nil
		},
	}, body)
	if !armedSent {
		// Run failed before the gate (e.g. a broken mark raced the check
		// above); join the rendezvous so the coordinator stays in step.
		bail(w.m.Broken(), err)
		return
	}
	if err != nil {
		finish(doneMsg{Err: err.Error()})
		return
	}
	for i, b := range bundles {
		if b.err != "" {
			finish(doneMsg{Err: fmt.Sprintf("rank %d bundle: %s", w.lo+i, b.err)})
			return
		}
	}
	finish(doneMsg{ElapsedNs: res.Elapsed.Nanoseconds(), Procs: res.Procs})
}

func (w *worker) buildRun(rs *RunSpec) (core.Spec, core.Algorithm, error) {
	idx := topology.SnakeRowMajor
	if rs.RowMajor {
		idx = topology.RowMajor
	}
	spec := core.Spec{Rows: rs.Rows, Cols: rs.Cols, Sources: rs.Sources, Indexing: idx}
	if err := spec.Validate(rs.Rows * rs.Cols); err != nil {
		return core.Spec{}, nil, err
	}
	alg, err := core.ByName(rs.Algorithm)
	if err != nil {
		return core.Spec{}, nil, err
	}
	if rs.MsgBytes <= 0 {
		return core.Spec{}, nil, fmt.Errorf("cluster: non-positive message size %d", rs.MsgBytes)
	}
	return spec, core.Bind(alg, spec), nil
}

// workerPayload is the deterministic per-source payload of a cluster
// run: MsgBytes bytes of byte(rank). Every worker derives it locally,
// so bundle verification needs no payload bytes on the control plane.
func workerPayload(rank, msgBytes int) []byte {
	b := make([]byte, msgBytes)
	for i := range b {
		b[i] = byte(rank)
	}
	return b
}

type bundleCheck struct{ err string }

// checkBundle verifies one rank's final bundle byte-exactly: one part
// per source, each carrying msgBytes bytes of byte(origin).
func checkBundle(spec core.Spec, msgBytes int, out comm.Message) bundleCheck {
	if len(out.Parts) != len(spec.Sources) {
		return bundleCheck{err: fmt.Sprintf("%d parts, want %d", len(out.Parts), len(spec.Sources))}
	}
	sources := make(map[int]bool, len(spec.Sources))
	for _, s := range spec.Sources {
		sources[s] = true
	}
	for _, part := range out.Parts {
		if !sources[part.Origin] {
			return bundleCheck{err: fmt.Sprintf("part from %d, which is not a source (or arrived twice)", part.Origin)}
		}
		delete(sources, part.Origin)
		if len(part.Data) != msgBytes {
			return bundleCheck{err: fmt.Sprintf("part from %d carries %d bytes, want %d", part.Origin, len(part.Data), msgBytes)}
		}
		if !bytes.Equal(part.Data, workerPayload(part.Origin, msgBytes)) {
			return bundleCheck{err: fmt.Sprintf("part from %d corrupted", part.Origin)}
		}
	}
	return bundleCheck{}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
