// Package cluster runs the TCP engine's mesh across OS processes: a
// coordinator (the foreman) spawns or adopts worker processes, each
// owning a contiguous rank range of the mesh as a partial tcp.Machine,
// and drives them through bootstrap, runs and recovery over one control
// connection per worker. The data plane is exactly the engine's frame
// protocol — the coordinator never touches a payload byte; it only
// moves addresses, link plans and run specs.
//
// # Bootstrap
//
// Each worker dials the coordinator's control listener and identifies
// itself (hello). The coordinator assigns it a rank range and the
// caller's link plan; the worker binds its ranks' listeners
// (tcp.NewWorkerMachine, which keeps the plan's pairs crossing the range
// and adds the links between the workers' leader ranks that the engine's
// barrier uses) and reports their addresses, and once every worker has
// reported, the coordinator broadcasts the merged rank→address map and
// has every worker dial its share of the plan (tcp.ConnectMesh): the
// higher rank of every pair dials, exactly as in the single-process
// mesh. Only pairs that cross workers get a socket; a worker's own ranks
// exchange through memory.
//
// # Runs
//
// A run is two control messages per worker: the coordinator validates
// the run spec and sends it, stamped with a cluster-wide frame epoch, to
// every worker (run), and each worker replies once it is over (done).
// The run message is the start — there is no arm round trip: a worker
// that starts first may send frames to one that has not armed the epoch
// yet, and the receiving engine holds them (its reader stops, TCP flow
// control buffers) until it does. Before starting, each worker dials
// its share of the pairs the run's program uses and the plan lacked
// (tcp.Machine.Prepare). Workers verify their own ranks' bundles
// (core.Collective.Check, byte-exact) and report per-rank stats as one
// blob of varints; the coordinator rebuilds and merges them. A worker
// compiles each instance it runs once (core.Bindings): the schedules are
// oblivious, so a repeated run spec repeats the program too.
//
// # Failure semantics
//
// A failed run marks every worker's mesh broken (the engine's abort
// closes all connections, including the wire pairs, whose loss the
// peer workers observe). A worker that cannot execute a run it received
// — its mesh is already broken, or a pre-run dial failed — closes its
// connections before it replies, so its peers fail the same way instead
// of waiting out RecvTimeout. Workers never redial on their own — a lone redialer
// would race peers that still consider the mesh broken — so the
// coordinator drives recovery: reset every worker (tcp.ResetMesh),
// reconnect every worker (tcp.ConnectMesh over the kept listeners and
// address table), retry the run once. A worker process
// dying takes its control connection with it; the coordinator reports
// the lost worker and the cluster is finished — rank ranges are static,
// so a dead worker's ranks cannot be re-homed mid-session.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/tcp"
	"repro/internal/topology"
)

// controlTimeout bounds every control-plane exchange that does not
// contain an algorithm run: hello, assign/addrs, connect/ready and
// reset/resetok. Run completion (done) is bounded by the run spec's own
// timeout plus slack, or unbounded like the engine when none is set.
const controlTimeout = 60 * time.Second

// msg is the one wire message of the control protocol, a tagged union
// of newline-delimited JSON objects. Exactly one of the optional field
// groups is meaningful per Type.
type msg struct {
	Type string `json:"type"`

	// hello (worker→coord)
	PID int `json:"pid,omitempty"`

	// assign (coord→worker)
	Assign *assignMsg `json:"assign,omitempty"`

	// addrs (worker→coord) and connect (coord→worker): listener
	// addresses by rank (JSON object keys are decimal ranks).
	Addrs map[int]string `json:"addrs,omitempty"`

	// run (coord→worker)
	Run *RunSpec `json:"run,omitempty"`

	// done (worker→coord)
	Done *doneMsg `json:"done,omitempty"`

	// err: any request the peer could not honor.
	Err string `json:"err,omitempty"`
}

// assignMsg hands a worker its identity: the mesh shape, its contiguous
// rank range, the link plan to prefetch, and the engine's setup options
// (every worker must agree on them, so the coordinator owns them).
type assignMsg struct {
	Index   int `json:"index"`
	P       int `json:"p"`
	Lo      int `json:"lo"`
	Hi      int `json:"hi"`
	Workers int `json:"workers"`

	// Links is the caller's whole plan; the worker's machine keeps the
	// pairs touching its range. Absent, it prefetches nothing but the
	// leader links.
	Links [][2]int `json:"links,omitempty"`
	// Leaders is every worker's lowest rank, ascending: the ranks the
	// engine's barrier synchronises the processes through.
	Leaders []int `json:"leaders"`

	ListenHost string `json:"listenHost,omitempty"`
}

// RunSpec is one cluster-wide collective: the paper instance (mesh
// shape, sources, indexing), the concrete algorithm (the coordinator
// resolves Auto before shipping; its registry name also names the
// collective), the payload size, and the engine's run knobs. Epoch is
// assigned by the coordinator, common to every worker.
type RunSpec struct {
	Epoch     uint32 `json:"epoch"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	Sources   []int  `json:"sources"`
	RowMajor  bool   `json:"rowMajor,omitempty"` // default is the paper's snake order
	Algorithm string `json:"algorithm"`
	MsgBytes  int    `json:"msgBytes"`

	RecvTimeoutNs int64 `json:"recvTimeoutNs,omitempty"`
	RunTimeoutNs  int64 `json:"runTimeoutNs,omitempty"`
}

// resolve builds the run's paper instance and algorithm, rejecting what
// no worker could run: a bad mesh or source list, an unknown algorithm,
// a non-positive size. The coordinator calls it before sending, so a bad
// spec never reaches a worker.
func (rs *RunSpec) resolve() (core.Spec, core.Algorithm, error) {
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
	return spec, alg, nil
}

// doneMsg reports one worker's share of a finished run: its local
// ranks' stats, its bundle verification, and its machine's lifetime
// dial counters.
type doneMsg struct {
	ElapsedNs int64 `json:"elapsedNs"`
	// Procs is the local ranks' tcp.ProcStats as one blob, which
	// encoding/json sends as one base64 string: procFields varints per
	// rank in field order (see flattenProcs).
	Procs []byte `json:"procs,omitempty"`
	// LazyDials counts the pairs this worker dialed before a run because
	// the plan lacked them (tcp.Machine.LazyDials); the zero-lazy-dials
	// proof reads it.
	LazyDials    int    `json:"lazyDials"`
	ConnsOpened  int    `json:"connsOpened"`
	PlannedPairs int    `json:"plannedPairs"`
	Err          string `json:"err,omitempty"`
}

// procFields is the number of integers one rank's stats take in
// doneMsg.Procs.
const procFields = 7

// flattenProcs lays stats out as doneMsg.Procs: Rank, Sends, Recvs,
// SendBytes, RecvBytes, BarrierSends, BarrierRecvs per rank, each a
// varint (binary.AppendVarint).
func flattenProcs(stats []tcp.ProcStats) []byte {
	blob := make([]byte, 0, 2*procFields*len(stats))
	for _, s := range stats {
		for _, v := range [procFields]int64{int64(s.Rank), int64(s.Sends), int64(s.Recvs), s.SendBytes, s.RecvBytes,
			int64(s.BarrierSends), int64(s.BarrierRecvs)} {
			blob = binary.AppendVarint(blob, v)
		}
	}
	return blob
}

// mergeProcs rebuilds the stats of the worker owning ranks [lo,hi) from
// blob into procs, which is indexed by rank. blob must hold every rank
// of the range exactly once, in well-formed varints and nothing after
// them; anything else is an error, and procs may then hold a partial
// merge.
func mergeProcs(procs []tcp.ProcStats, blob []byte, lo, hi int) error {
	for r := lo; r < hi; r++ {
		procs[r].Rank = -1
	}
	for range hi - lo {
		var f [procFields]int64
		for i := range f {
			v, k := binary.Varint(blob)
			if k == 0 {
				return fmt.Errorf("cluster: stats for ranks [%d,%d) truncated", lo, hi)
			}
			if k < 0 {
				return fmt.Errorf("cluster: stats for ranks [%d,%d): overlong varint", lo, hi)
			}
			f[i], blob = v, blob[k:]
		}
		r := f[0]
		if r < int64(lo) || r >= int64(hi) {
			return fmt.Errorf("cluster: stats for rank %d, outside [%d,%d)", r, lo, hi)
		}
		if procs[r].Rank >= 0 {
			return fmt.Errorf("cluster: stats for rank %d twice", r)
		}
		procs[r] = tcp.ProcStats{
			Rank: int(r), Sends: int(f[1]), Recvs: int(f[2]), SendBytes: f[3], RecvBytes: f[4],
			BarrierSends: int(f[5]), BarrierRecvs: int(f[6]),
		}
	}
	if len(blob) > 0 {
		return fmt.Errorf("cluster: %d bytes after the stats of ranks [%d,%d)", len(blob), lo, hi)
	}
	return nil
}

// conn wraps one control connection with JSON codecs. Each end has one
// sender: the worker's protocol loop, the coordinator under its lock.
type conn struct {
	c   net.Conn
	enc *json.Encoder
	dec *json.Decoder
}

func newConn(c net.Conn) *conn {
	return &conn{c: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)}
}

func (c *conn) send(m msg) error { return c.enc.Encode(m) }

// recv reads the next message, bounded by timeout (0 means no bound).
func (c *conn) recv(timeout time.Duration) (msg, error) {
	if timeout > 0 {
		c.c.SetReadDeadline(time.Now().Add(timeout))
		defer c.c.SetReadDeadline(time.Time{})
	}
	var m msg
	if err := c.dec.Decode(&m); err != nil {
		return msg{}, err
	}
	return m, nil
}

// expect reads the next message and requires it to be of type want; an
// err message is surfaced as the peer's error.
func (c *conn) expect(want string, timeout time.Duration) (msg, error) {
	m, err := c.recv(timeout)
	if err != nil {
		return msg{}, err
	}
	if m.Err != "" && m.Type != want {
		return msg{}, fmt.Errorf("cluster: peer error: %s", m.Err)
	}
	if m.Type != want {
		return msg{}, fmt.Errorf("cluster: expected %q message, got %q", want, m.Type)
	}
	return m, nil
}
