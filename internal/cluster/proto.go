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
// itself (hello). The coordinator assigns it a rank range and the slice
// of the planned link set touching that range (plan.Partition /
// plan.WorkerLinks) — the caller's schedule links plus the links between
// the workers' leader ranks that the engine's barrier uses
// (engine.LeaderLinks) — the worker binds its ranks' listeners
// (tcp.NewWorkerMachine) and reports their addresses, and once every
// worker has reported, the coordinator broadcasts the merged
// rank→address map and has every worker dial its share of the plan
// (tcp.ConnectMesh): the higher rank of every pair dials, exactly as in
// the single-process mesh, so intra-worker pairs stay in-process and
// inter-worker pairs cross the wire.
//
// # Runs
//
// A run is a two-phase start: the coordinator sends the run spec with a
// cluster-wide frame epoch, each worker arms its mailboxes and acks
// from inside the engine's start gate (tcp.Options.StartGate), and only
// when every worker is armed does the coordinator release them — no
// frame can reach a process that would still discard it as stale.
// Workers verify their own ranks' bundles (every source's payload,
// byte-exact) and report per-rank stats; the coordinator merges them.
//
// # Failure semantics
//
// A failed run marks every worker's mesh broken (the engine's abort
// closes all connections, including the wire pairs, whose loss the
// peer workers observe). Workers never redial on their own — a lone
// redialer would race peers that still consider the mesh broken — so
// the coordinator drives recovery: reset every worker (tcp.ResetMesh),
// reconnect every worker (tcp.ConnectMesh over the kept listeners and
// address table), retry the run once. A worker process dying takes its
// control connection with it; the coordinator reports the lost worker
// and the cluster is finished — rank ranges are static, so a dead
// worker's ranks cannot be re-homed mid-session.
package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/tcp"
)

// controlTimeout bounds every control-plane exchange that does not
// contain an algorithm run: hello, assign/addrs, connect/ready,
// reset/resetok and the armed ack. Run completion (done) is bounded by
// the run spec's own timeout plus slack, or unbounded like the engine
// when none is set.
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

	// armed (worker→coord): mailboxes armed inside the start gate.
	// Broken reports a mesh the engine marked damaged; Err a run the
	// worker could not even start (bad spec) — not retryable.
	Broken bool `json:"broken,omitempty"`

	// start (coord→worker): release the gate, or abort the run.
	Abort bool `json:"abort,omitempty"`

	// done (worker→coord)
	Done *doneMsg `json:"done,omitempty"`

	// err: any request the peer could not honor.
	Err string `json:"err,omitempty"`
}

// assignMsg hands a worker its identity: the mesh shape, its contiguous
// rank range, its slice of the planned link set, and the engine's setup
// options (every worker must agree on them, so the coordinator owns
// them).
type assignMsg struct {
	Index   int `json:"index"`
	P       int `json:"p"`
	Lo      int `json:"lo"`
	Hi      int `json:"hi"`
	Workers int `json:"workers"`

	// FullMesh distinguishes "no plan, dial everything" from an empty
	// link slice (JSON cannot round-trip nil vs empty).
	FullMesh bool     `json:"fullMesh,omitempty"`
	Links    [][2]int `json:"links,omitempty"`
	// Leaders is every worker's lowest rank, ascending: the ranks the
	// engine's barrier synchronises the processes through.
	Leaders []int `json:"leaders"`

	ListenHost    string `json:"listenHost,omitempty"`
	DialAttempts  int    `json:"dialAttempts,omitempty"`
	DialBackoffNs int64  `json:"dialBackoffNs,omitempty"`
}

// RunSpec is one cluster-wide broadcast: the paper instance (mesh shape,
// sources, indexing), the concrete algorithm (the coordinator resolves
// Auto before shipping), the payload size, and the engine's run knobs.
// Epoch is assigned by the coordinator, common to every worker.
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

// doneMsg reports one worker's share of a finished run: its local
// ranks' stats, its bundle verification, and its machine's lifetime
// dial counters (the zero-lazy-dials proof reads LazyDials).
type doneMsg struct {
	ElapsedNs    int64           `json:"elapsedNs"`
	Procs        []tcp.ProcStats `json:"procs,omitempty"`
	LazyDials    int             `json:"lazyDials"`
	ConnsOpened  int             `json:"connsOpened"`
	PlannedPairs int             `json:"plannedPairs"`
	Err          string          `json:"err,omitempty"`
}

// conn wraps one control connection with JSON codecs and a write lock
// (a worker's protocol loop and its run goroutine both send).
type conn struct {
	c   net.Conn
	enc *json.Encoder
	dec *json.Decoder
	wmu sync.Mutex
}

func newConn(c net.Conn) *conn {
	return &conn{c: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)}
}

func (c *conn) send(m msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.Encode(m)
}

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
