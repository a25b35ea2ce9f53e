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
// (core.Collective.Check, byte-exact) and report their ranks' stats
// summed; the coordinator adds the workers' sums. A worker
// compiles each instance it runs once (core.Bindings): the schedules are
// oblivious, so a repeated run spec repeats the program too. Run and
// done are binary frames on the control connection; setup and recovery
// messages are JSON lines (see conn). A worker's ranks share their
// program's messages in memory (tcp.NewWorkerMachine), so the check
// inside each rank body reads a bundle whose part array its peers may
// still hold, and must not reorder it.
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
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
)

// controlTimeout bounds every control-plane exchange that does not
// contain an algorithm run: hello, assign/addrs, connect/ready and
// reset/resetok. Run completion (done) is bounded by the run spec's own
// timeout plus slack, or unbounded like the engine when none is set.
const controlTimeout = 60 * time.Second

// msg is one message of the control protocol. Setup and recovery
// messages are newline-delimited JSON objects, a tagged union in which
// exactly one of the optional field groups is meaningful per Type; the
// two messages of every run, run and done, travel as binary frames
// (see conn) and arrive in Run or Done.
type msg struct {
	Type string `json:"type"`

	// hello (worker→coord)
	PID int `json:"pid,omitempty"`

	// assign (coord→worker)
	Assign *assignMsg `json:"assign,omitempty"`

	// addrs (worker→coord) and connect (coord→worker): listener
	// addresses by rank (JSON object keys are decimal ranks).
	Addrs map[int]string `json:"addrs,omitempty"`

	// run (coord→worker) and done (worker→coord), decoded from a frame
	// into storage of the receiving conn: valid until its next recv.
	Run  *RunSpec `json:"-"`
	Done *doneMsg `json:"-"`

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
	Epoch     uint32
	Rows      int
	Cols      int
	Sources   []int
	RowMajor  bool // default is the paper's snake order
	Algorithm string
	MsgBytes  int

	RecvTimeoutNs int64
	RunTimeoutNs  int64
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

// doneMsg reports one worker's share of a finished run: the totals of
// its ranks' stats, its bundle verification, and its machine's lifetime
// dial counters.
type doneMsg struct {
	ElapsedNs int64
	engine.Totals
	// LazyDials counts the pairs this worker dialed before a run because
	// the plan lacked them (tcp.Machine.LazyDials); the zero-lazy-dials
	// proof reads it.
	LazyDials    int
	ConnsOpened  int
	PlannedPairs int
	Err          string
}

// The run and done frames: [kind byte][body length, uint32 big-endian]
// [body]. A JSON message starts with '{', which no frame kind is, so a
// message's first byte tells which it is.
const (
	frameRun    = 0x01
	frameDone   = 0x02
	frameHdrLen = 5
	// maxFrame caps a frame body, and a JSON line too. A run frame
	// carries at most 10 bytes a source rank, so 8 MiB holds the sources
	// of over 800 000 ranks; a larger length is a corrupt stream, refused
	// before anything is read or allocated for it.
	maxFrame = 8 << 20
	// frameChunk is how much of a frame body the reader reads, and grows
	// its buffer by, at a time: a length the stream does not back up
	// costs no more than the bytes that actually arrive.
	frameChunk = 64 << 10
)

// appendRun appends the run frame body of rs: the epoch, the mesh shape,
// the indexing (1 for row-major), the message size, both timeouts, the
// source count and the sources, each a varint, then the algorithm name
// as a varint length and its bytes.
func appendRun(b []byte, rs *RunSpec) []byte {
	rowMajor := int64(0)
	if rs.RowMajor {
		rowMajor = 1
	}
	for _, v := range [...]int64{int64(rs.Epoch), int64(rs.Rows), int64(rs.Cols), rowMajor, int64(rs.MsgBytes),
		rs.RecvTimeoutNs, rs.RunTimeoutNs, int64(len(rs.Sources))} {
		b = binary.AppendVarint(b, v)
	}
	for _, src := range rs.Sources {
		b = binary.AppendVarint(b, int64(src))
	}
	b = binary.AppendVarint(b, int64(len(rs.Algorithm)))
	return append(b, rs.Algorithm...)
}

// decodeRun decodes a run frame body into rs, reusing its Sources array
// and keeping its Algorithm string when the name is unchanged.
func decodeRun(body []byte, rs *RunSpec) error {
	d := decoder{b: body}
	epoch := d.int()
	if epoch < 0 || epoch > math.MaxUint32 {
		d.fail(fmt.Errorf("cluster: run frame: epoch %d", epoch))
	}
	rs.Epoch = uint32(epoch)
	rs.Rows, rs.Cols = int(d.int()), int(d.int())
	rs.RowMajor = d.int() == 1
	rs.MsgBytes = int(d.int())
	rs.RecvTimeoutNs, rs.RunTimeoutNs = d.int(), d.int()
	n := d.count()
	rs.Sources = slices.Grow(rs.Sources[:0], n)
	for range n {
		rs.Sources = append(rs.Sources, int(d.int()))
	}
	if alg := d.bytes(); string(alg) != rs.Algorithm {
		rs.Algorithm = string(alg)
	}
	return d.end("run")
}

// appendDone appends the done frame body of dm: elapsed time, the three
// dial counters and the six totals, each a varint, then the error text
// as a varint length and its bytes.
func appendDone(b []byte, dm *doneMsg) []byte {
	for _, v := range [...]int64{dm.ElapsedNs, int64(dm.LazyDials), int64(dm.ConnsOpened), int64(dm.PlannedPairs),
		int64(dm.Sends), int64(dm.Recvs), dm.SendBytes, dm.RecvBytes, int64(dm.BarrierSends), int64(dm.BarrierRecvs),
		int64(len(dm.Err))} {
		b = binary.AppendVarint(b, v)
	}
	return append(b, dm.Err...)
}

// decodeDone decodes a done frame body into dm; a negative count is an
// error.
func decodeDone(body []byte, dm *doneMsg) error {
	d := decoder{b: body}
	dm.ElapsedNs = d.int()
	dm.LazyDials, dm.ConnsOpened, dm.PlannedPairs = int(d.tally()), int(d.tally()), int(d.tally())
	dm.Sends, dm.Recvs = int(d.tally()), int(d.tally())
	dm.SendBytes, dm.RecvBytes = d.tally(), d.tally()
	dm.BarrierSends, dm.BarrierRecvs = int(d.tally()), int(d.tally())
	dm.Err = ""
	if e := d.bytes(); len(e) > 0 {
		dm.Err = string(e)
	}
	return d.end("done")
}

// decoder reads a frame body's fields in order. The first malformed one
// sets err; every read after it returns zero.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errors.New("truncated or overlong varint"))
		return 0
	}
	d.b = d.b[n:]
	return v
}

// tally reads a count of events, which cannot be negative.
func (d *decoder) tally() int64 {
	v := d.int()
	if v < 0 {
		d.fail(fmt.Errorf("negative count %d", v))
		return 0
	}
	return v
}

// count reads a count of varints or bytes that follow: it can be no
// larger than the bytes left, which bounds what a decode allocates by
// the frame's size.
func (d *decoder) count() int {
	v := d.int()
	if v < 0 || v > int64(len(d.b)) {
		d.fail(fmt.Errorf("count %d with %d bytes left", v, len(d.b)))
		return 0
	}
	return int(v)
}

// bytes reads a length-prefixed byte string, aliasing the body.
func (d *decoder) bytes() []byte {
	n := d.count()
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

// end reports the first malformed field, or bytes left over after the
// last one.
func (d *decoder) end(kind string) error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d bytes after the last field", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("cluster: %s frame: %w", kind, d.err)
	}
	return nil
}

// conn is one control connection. Setup and recovery messages go as
// JSON lines, run and done as frames; one buffered reader reads both.
// Each end has one sender — the worker's protocol loop, the coordinator
// under its lock — and one receiver, so the reused buffers need no lock.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	out []byte // the message being written
	in  []byte // the last frame body or JSON line read
	// run and done hold the last frame of each kind decoded; a recv
	// returns pointers to them.
	run  RunSpec
	done doneMsg
}

func newConn(c net.Conn) *conn { return &conn{c: c, br: bufio.NewReader(c)} }

// send writes a setup or recovery message as one JSON line, in one Write.
func (c *conn) send(m msg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = c.c.Write(append(b, '\n'))
	return err
}

// sendRun writes rs as a run frame.
func (c *conn) sendRun(rs *RunSpec) error {
	c.out = appendRun(append(c.out[:0], frameRun, 0, 0, 0, 0), rs)
	return c.flush()
}

// sendDone writes dm as a done frame.
func (c *conn) sendDone(dm *doneMsg) error {
	c.out = appendDone(append(c.out[:0], frameDone, 0, 0, 0, 0), dm)
	return c.flush()
}

// flush stamps the body length into the frame in c.out and writes it.
func (c *conn) flush() error {
	n := len(c.out) - frameHdrLen
	if n > maxFrame {
		return fmt.Errorf("cluster: %d-byte control frame over the %d-byte cap", n, maxFrame)
	}
	binary.BigEndian.PutUint32(c.out[1:], uint32(n))
	_, err := c.c.Write(c.out)
	return err
}

// recv reads the next message, bounded by timeout (0 means no bound). A
// run or done is decoded into the conn's own storage.
func (c *conn) recv(timeout time.Duration) (msg, error) {
	if timeout > 0 {
		c.c.SetReadDeadline(time.Now().Add(timeout))
		defer c.c.SetReadDeadline(time.Time{})
	}
	first, err := c.br.Peek(1)
	if err != nil {
		return msg{}, err
	}
	switch kind := first[0]; kind {
	case '{':
		line, err := c.readLine()
		if err != nil {
			return msg{}, err
		}
		var m msg
		if err := json.Unmarshal(line, &m); err != nil {
			return msg{}, err
		}
		return m, nil
	case frameRun, frameDone:
		body, err := c.readFrame()
		if err != nil {
			return msg{}, err
		}
		if kind == frameRun {
			if err := decodeRun(body, &c.run); err != nil {
				return msg{}, err
			}
			return msg{Type: "run", Run: &c.run}, nil
		}
		if err := decodeDone(body, &c.done); err != nil {
			return msg{}, err
		}
		return msg{Type: "done", Done: &c.done}, nil
	default:
		return msg{}, fmt.Errorf("cluster: control message starting with byte %#x", kind)
	}
}

// readLine reads one JSON line, newline included, of at most maxFrame
// bytes.
func (c *conn) readLine() ([]byte, error) {
	c.in = c.in[:0]
	for {
		frag, err := c.br.ReadSlice('\n')
		if len(c.in)+len(frag) > maxFrame {
			return nil, fmt.Errorf("cluster: control message over the %d-byte cap", maxFrame)
		}
		c.in = append(c.in, frag...)
		switch err {
		case nil:
			return c.in, nil
		case bufio.ErrBufferFull:
		case io.EOF:
			return nil, io.ErrUnexpectedEOF // the stream ended inside a line
		default:
			return nil, err
		}
	}
}

// readFrame reads one frame's body. A length over maxFrame is refused
// before anything is read; the body is read frameChunk bytes at a time,
// so a length larger than what the stream holds fails without having
// allocated for it.
func (c *conn) readFrame() ([]byte, error) {
	hdr, err := c.br.Peek(frameHdrLen)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > maxFrame {
		return nil, fmt.Errorf("cluster: %d-byte control frame over the %d-byte cap", n, maxFrame)
	}
	c.br.Discard(frameHdrLen)
	c.in = c.in[:0]
	for len(c.in) < n {
		k := min(n-len(c.in), frameChunk)
		c.in = slices.Grow(c.in, k)
		got, err := io.ReadFull(c.br, c.in[len(c.in):len(c.in)+k])
		c.in = c.in[:len(c.in)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return c.in, nil
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
