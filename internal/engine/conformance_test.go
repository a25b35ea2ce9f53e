package engine_test

// The conformance table of the real-byte engines: one list of lifecycle
// scenarios, run against every machine the engines build — memory
// (internal/live), sockets (internal/tcp, one process) and workers (the
// machine a cluster runs: one mesh split across tcp worker machines) —
// with failures named scenario/engine. A scenario states what comm.Comm
// and the run lifecycle promise; nothing in it may depend on how
// messages travel, only on where the machine's process boundaries lie.
// Transport-only behaviour (frame codec, dial retry, reconnect counts,
// pre-run dials, which pairs a worker machine dials) is tested in
// internal/tcp.

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// machine is what a scenario drives: one engine's persistent machine.
type machine interface {
	Run(engine.Options, func(*engine.Proc)) (engine.Result, error)
	Close() error
}

// sockets adapts tcp.Machine's wider run options to the core's.
type sockets struct{ *tcp.Machine }

func (s sockets) Run(o engine.Options, fn func(*engine.Proc)) (engine.Result, error) {
	return s.Machine.Run(runOptions(o), fn)
}

func runOptions(o engine.Options) tcp.Options {
	return tcp.Options{Context: o.Context, RunTimeout: o.RunTimeout, RecvTimeout: o.RecvTimeout, Tracer: o.Tracer}
}

// engines are the machines under test. prefix begins every error of that
// engine; parts are the rank ranges of the processes a p-rank machine
// spans.
var engines = []struct {
	name, prefix string
	open         func(p int) (machine, error)
	parts        func(p int) [][2]int
}{
	{"memory", "live: ", openMemory, oneProcess},
	{"sockets", "tcp: ", openSockets, oneProcess},
	{"workers", "tcp: ", openWorkers, workerRanges},
}

func openMemory(p int) (machine, error) {
	m, err := live.NewMachine(p)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func openSockets(p int) (machine, error) {
	m, err := tcp.NewMachine(p, tcp.Options{})
	if err != nil {
		return nil, err
	}
	return sockets{m}, nil
}

func oneProcess(p int) [][2]int { return [][2]int{{0, p}} }

// workerRanges splits p ranks into min(3, p) contiguous ranges of uneven
// size: the last two hold ⌊p/4⌋ ranks each (one at least), the first the
// rest.
func workerRanges(p int) [][2]int {
	n := min(3, p)
	if n <= 1 {
		return oneProcess(p)
	}
	step := max(1, p/4)
	ranges := make([][2]int, n)
	for w := range ranges {
		ranges[w] = [2]int{p - (n-w)*step, p - (n-w-1)*step}
	}
	ranges[0][0] = 0
	return ranges
}

// workers is the machine a cluster runs, in one process: a p-rank mesh
// split into workerRanges, a tcp.NewWorkerMachine each, wired as the
// cluster coordinator wires its workers — every part's LocalAddrs merged,
// then ConnectMesh on every part at once. A part's own ranks exchange
// through memory and meet in its barrier; pairs across parts use sockets,
// and the barrier crosses parts by leader tokens.
type workers struct {
	size  int
	parts []*tcp.Machine
	// last holds each part's result of the last successful run.
	last   []engine.Result
	epoch  uint32
	broken bool // the last run failed: the mesh is rebuilt before the next
	resets int
}

// lag is how late the last part starts every run: the others' first
// frames reach it before it arms the run's epoch, so every scenario runs
// through the pumps' holding of early frames.
const lag = 2 * time.Millisecond

// hangAfter ends a run that outlives any scenario's: a part that lost
// its peers' frames would otherwise hang the test binary. The error it
// leaves names no engine, so every scenario fails on it.
const hangAfter = 5 * time.Second

func openWorkers(p int) (machine, error) {
	ranges := workerRanges(p)
	leaders := make([]int, len(ranges))
	for i, r := range ranges {
		leaders[i] = r[0]
	}
	w := &workers{size: p}
	addrs := map[int]string{}
	for _, r := range ranges {
		m, err := tcp.NewWorkerMachine(p, r[0], r[1], leaders, tcp.Options{})
		if err != nil {
			w.Close()
			return nil, err
		}
		w.parts = append(w.parts, m)
		maps.Copy(addrs, m.LocalAddrs())
	}
	if err := w.each(func(_ int, m *tcp.Machine) error { return m.ConnectMesh(context.Background(), addrs) }); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// each calls fn on every part at once and returns the parts' errors in
// part order, as the coordinator reports its workers'.
func (w *workers) each(fn func(int, *tcp.Machine) error) error {
	errs := make([]error, len(w.parts))
	var wg sync.WaitGroup
	for i, m := range w.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, m)
		}()
	}
	wg.Wait()
	var msgs []string
	for _, err := range errs {
		if err != nil {
			msgs = append(msgs, err.Error())
		}
	}
	if msgs == nil {
		return nil
	}
	return errors.New(strings.Join(msgs, "; "))
}

// Run runs fn on every part under one epoch, the last part lag late,
// and sums the parts' totals. After a failed run it first
// resets every part's mesh, then reconnects every part, as the
// coordinator recovers.
func (w *workers) Run(o engine.Options, fn func(*engine.Proc)) (engine.Result, error) {
	if w.broken {
		if err := w.each(func(_ int, m *tcp.Machine) error { return m.ResetMesh() }); err != nil {
			return engine.Result{}, err
		}
		if err := w.each(func(_ int, m *tcp.Machine) error { return m.ConnectMesh(context.Background(), nil) }); err != nil {
			return engine.Result{}, err
		}
		w.broken = false
		w.resets++
	}
	w.epoch++
	opts := runOptions(o)
	opts.Epoch = w.epoch
	ctx, cancel := context.WithCancel(cmp.Or(o.Context, context.Background()))
	defer cancel()
	opts.Context = ctx
	guard := time.AfterFunc(hangAfter, cancel)
	results := make([]engine.Result, len(w.parts))
	err := w.each(func(i int, m *tcp.Machine) (err error) {
		if i > 0 && i == len(w.parts)-1 {
			time.Sleep(lag)
		}
		results[i], err = m.Run(opts, fn)
		return err
	})
	hung := !guard.Stop()
	if hung || err != nil {
		w.broken = true
	}
	if hung {
		return engine.Result{}, fmt.Errorf("workers: run still going after %v: %v", hangAfter, err)
	}
	if err != nil {
		return engine.Result{}, err
	}
	var res engine.Result
	for _, r := range results {
		res.Elapsed = max(res.Elapsed, r.Elapsed)
		res.Add(r.Totals)
	}
	w.last = results
	return res, nil
}

// Reconnects counts the mesh rebuilds after failed runs.
func (w *workers) Reconnects() int { return w.resets }

// Epoch and Reclaim make the parts' runs ownable, as a cluster's are:
// every part runs under the common epoch, and reclaims it.
func (w *workers) Epoch() uint32 { return w.epoch }

func (w *workers) Reclaim(epoch uint32) {
	for _, m := range w.parts {
		m.Reclaim(epoch)
	}
}

// Recycle marks the last run's part arrays dead on every part, as a
// cluster's workers each do once their checks pass.
func (w *workers) Recycle() {
	for _, m := range w.parts {
		m.Recycle()
	}
}

func (w *workers) Close() error {
	var errs []error
	for _, m := range w.parts {
		errs = append(errs, m.Close())
	}
	return errors.Join(errs...)
}

// harness is one scenario's view of one engine.
type harness struct {
	*testing.T
	prefix string
	open   func(p int) (machine, error)
	parts  func(p int) [][2]int
	opened []machine
}

// machine opens a p-rank machine that the runner closes when the
// scenario returns.
func (h *harness) machine(p int) machine {
	h.Helper()
	m, err := h.open(p)
	if err != nil {
		h.Fatal(err)
	}
	h.opened = append(h.opened, m)
	return m
}

// run is the one-shot form: a fresh p-rank machine, one run.
func (h *harness) run(p int, opts engine.Options, fn func(*engine.Proc)) (engine.Result, error) {
	h.Helper()
	return h.machine(p).Run(opts, fn)
}

// failed asserts err is a run failure naming the engine and everything
// in wants.
func (h *harness) failed(err error, wants ...string) {
	h.Helper()
	if err == nil {
		h.Fatalf("run succeeded, want an error containing %q", wants)
	}
	if !strings.HasPrefix(err.Error(), h.prefix) {
		h.Errorf("error %q does not name the engine (%q)", err, h.prefix)
	}
	for _, want := range wants {
		if !strings.Contains(err.Error(), want) {
			h.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// footprint is the process state a scenario must hand back: goroutines
// and open file descriptors.
func footprint() (goroutines, fds int) {
	if ents, err := os.ReadDir("/proc/self/fd"); err == nil {
		fds = len(ents)
	}
	return runtime.NumGoroutine(), fds
}

// settled waits for the footprint to return to the baseline: every rank,
// watcher, pump and acceptor goroutine gone, every socket closed.
func settled(t *testing.T, goroutines, fds int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, f := footprint()
		if g <= goroutines && f <= fds {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scenario leaked: %d goroutines (baseline %d), %d fds (baseline %d)", g, goroutines, f, fds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func msg(tag, origin int, data string) comm.Message {
	return comm.Message{Tag: tag, Parts: []comm.Part{{Origin: origin, Data: []byte(data)}}}
}

// ringRound is one healthy round of traffic on a p-ring: send right a
// one-byte payload equal to the tag, receive from the left, meet.
func ringRound(h *harness, p, tag int) func(*engine.Proc) {
	return func(pr *engine.Proc) {
		pr.Send((pr.Rank()+1)%p, msg(tag, pr.Rank(), string([]byte{byte(tag)})))
		if got := pr.Recv((pr.Rank() + p - 1) % p); got.Tag != tag || got.Parts[0].Data[0] != byte(tag) {
			h.Errorf("rank %d: got tag %d, payload %v, want %d", pr.Rank(), got.Tag, got.Parts[0].Data, tag)
		}
		pr.Barrier()
	}
}

// owner is a machine that recycles what its runs receive (tcp.Machine
// and so the sockets and workers columns): Epoch names the run just
// returned, and Reclaim hands that run's received storage back for the
// next run to decode into.
type owner interface {
	Epoch() uint32
	Reclaim(epoch uint32)
}

// epochOf names the run m just returned, and release hands a run back as
// Result.Release does: a no-op on a machine that recycles nothing.
func epochOf(m machine) uint32 {
	if own, ok := m.(owner); ok {
		return own.Epoch()
	}
	return 0
}

func release(m machine, epoch uint32) {
	if own, ok := m.(owner); ok {
		own.Reclaim(epoch)
	}
}

// ownP is the ownership rows' machine: rank r sends to r+2 mod 4, a pair
// whose messages cross a socket on sockets and on workers, whose first
// part holds ranks 0 and 1 only.
const ownP = 4

// ownedPart is the bytes of part i of what origin sends in run: the first
// fits a reader's buffered window, the second is read into a buffer of
// its own.
func ownedPart(run, origin, i int) []byte {
	return bytes.Repeat([]byte{byte(run*7 + origin*3 + i)}, []int{100, 5000}[i])
}

// exchange runs run's traffic on m and returns the parts each rank
// received, with the run's epoch.
func exchange(h *harness, m machine, run int) ([][]comm.Part, uint32) {
	h.Helper()
	got := make([][]comm.Part, ownP)
	_, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, func(pr *engine.Proc) {
		me := pr.Rank()
		pr.Send((me+2)%ownP, comm.Message{Tag: run, Parts: []comm.Part{
			{Origin: me, Data: ownedPart(run, me, 0)}, {Origin: me, Data: ownedPart(run, me, 1)},
		}})
		got[me] = pr.Recv((me + 2) % ownP).Parts
	})
	if err != nil {
		h.Fatalf("run %d: %v", run, err)
	}
	return got, epochOf(m)
}

// intact fails unless got still holds exactly what run delivered.
func intact(h *harness, got [][]comm.Part, run int) {
	h.Helper()
	for me, parts := range got {
		src := (me + 2) % ownP
		if len(parts) != 2 {
			h.Errorf("run %d: rank %d holds %d parts, want 2", run, me, len(parts))
			continue
		}
		for i, part := range parts {
			if part.Origin != src || !bytes.Equal(part.Data, ownedPart(run, src, i)) {
				h.Errorf("run %d: rank %d's part %d from %d changed after its run (origin %d, %d bytes, first %#02x)",
					run, me, i, src, part.Origin, len(part.Data), part.Data[:min(1, len(part.Data))])
			}
		}
	}
}

// seqTracer collects events from all rank goroutines.
type seqTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *seqTracer) Trace(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// injected is one fault plan's injectors on a p-rank machine: one per
// process, as every process of a run builds its own from the run's plan.
type injected struct {
	parts [][2]int
	injs  []*faults.Injector
}

func inject(parts [][2]int, plan faults.Plan) injected {
	in := injected{parts: parts}
	for range parts {
		in.injs = append(in.injs, faults.New(plan))
	}
	return in
}

// wrap wraps a rank with its own process's injector.
func (in injected) wrap(pr *engine.Proc) comm.Comm {
	i := slices.IndexFunc(in.parts, func(r [2]int) bool { return pr.Rank() < r[1] })
	return in.injs[i].Wrap(pr)
}

// events merges every process's event log in one canonical order.
func (in injected) events() []faults.Event {
	var out []faults.Event
	for _, inj := range in.injs {
		out = append(out, inj.Events()...)
	}
	slices.SortFunc(out, func(a, b faults.Event) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Msg, b.Msg),
			cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Kind, b.Kind))
	})
	return out
}

var scenarios = []struct {
	name string
	run  func(h *harness)
}{
	{"ping-pong content", func(h *harness) {
		res, err := h.run(2, engine.Options{}, func(p *engine.Proc) {
			if p.Rank() == 0 {
				p.Send(1, msg(7, 0, "hello"))
				if m := p.Recv(1); string(m.Parts[0].Data) != "world" {
					h.Errorf("rank 0 got %q", m.Parts[0].Data)
				}
			} else {
				if m := p.Recv(0); m.Tag != 7 || m.Parts[0].Origin != 0 || string(m.Parts[0].Data) != "hello" {
					h.Errorf("rank 1 got %+v", m)
				}
				p.Send(0, msg(0, 1, "world"))
			}
		})
		if err != nil {
			h.Fatal(err)
		}
		if want := (engine.Totals{Sends: 2, Recvs: 2, SendBytes: 10, RecvBytes: 10}); res.Totals != want {
			h.Errorf("counts %+v, want %+v", res.Totals, want)
		}
	}},

	// Every received part is capacity-clipped, wherever its bytes live:
	// an append through one must not reach the next.
	{"send copies payload", func(h *harness) {
		_, err := h.run(2, engine.Options{}, func(p *engine.Proc) {
			if p.Rank() == 0 {
				buf := []byte("original")
				p.Send(1, comm.Message{Parts: []comm.Part{{Data: buf}, {Origin: 1, Data: []byte("beta")}}})
				copy(buf, "CLOBBER!") // must not affect the in-flight message
				return
			}
			m := p.Recv(0)
			if len(m.Parts) != 2 || string(m.Parts[0].Data) != "original" || string(m.Parts[1].Data) != "beta" {
				h.Errorf("payload aliased or lost: %+v", m.Parts)
				return
			}
			for i, part := range m.Parts {
				if cap(part.Data) != len(part.Data) {
					h.Errorf("part %d not clipped: len %d cap %d", i, len(part.Data), cap(part.Data))
				}
			}
			_ = append(m.Parts[0].Data, "XXXXXXXX"...)
			if string(m.Parts[1].Data) != "beta" {
				h.Errorf("an append through part 0 reached part 1: %q", m.Parts[1].Data)
			}
		})
		if err != nil {
			h.Fatal(err)
		}
	}},

	// The buffered-send contract holds for a send to the own rank too:
	// what Recv returns is what was sent, whatever the sender did to its
	// buffer in between.
	{"self-send then mutate", func(h *harness) {
		_, err := h.run(3, engine.Options{}, func(p *engine.Proc) {
			buf := []byte("original")
			p.Send(p.Rank(), comm.Message{Tag: 5, Parts: []comm.Part{{Origin: p.Rank(), Data: buf}}})
			copy(buf, "CLOBBER!")
			m := p.Recv(p.Rank())
			if !bytes.Equal(m.Parts[0].Data, []byte("original")) {
				h.Errorf("rank %d: self-send aliased the caller's buffer: %q", p.Rank(), m.Parts[0].Data)
			}
			if m.Tag != 5 || m.Parts[0].Origin != p.Rank() {
				h.Errorf("rank %d: self message came back as tag %d from origin %d", p.Rank(), m.Tag, m.Parts[0].Origin)
			}
		})
		if err != nil {
			h.Fatal(err)
		}
	}},

	// A shared send hands over the part array itself (SendShared), but
	// capped at its length: what a receiver appends to it cannot land in
	// the sender's spare capacity. On workers rank 0 sends to rank 1
	// through memory, as a cluster worker's own ranks exchange.
	{"shared send then append", func(h *harness) {
		const n = 4
		_, err := h.run(n, engine.Options{}, func(p *engine.Proc) {
			me := p.Rank()
			parts := make([]comm.Part, 1, 2)
			parts[0] = comm.Part{Origin: me, Data: []byte("shared")}
			dst := (me + 1) % n
			p.SendShared(dst, comm.Message{Parts: parts})
			p.SendShared(me, comm.Message{Parts: parts})
			for _, src := range []int{(me + n - 1) % n, me} {
				m := p.Recv(src)
				if len(m.Parts) != 1 || m.Parts[0].Origin != src || string(m.Parts[0].Data) != "shared" {
					h.Errorf("rank %d: from %d got %v", me, src, m.Parts)
				}
				_ = append(m.Parts, comm.Part{Origin: 99})
			}
			p.Barrier()
			if spare := parts[:2][1]; spare.Origin != 0 {
				h.Errorf("rank %d: a receiver appended into the sender's array: %+v", me, spare)
			}
		})
		if err != nil {
			h.Fatal(err)
		}
	}},

	// The receiver meets the senders in a barrier before it receives: the
	// barrier must neither swallow a queued message nor be satisfied by
	// one — on workers its tokens follow the data on the same sockets.
	{"FIFO per pair", func(h *harness) {
		const n = 200
		_, err := h.run(3, engine.Options{}, func(p *engine.Proc) {
			if p.Rank() < 2 {
				for i := 0; i < n; i++ {
					p.Send(2, msg(i, p.Rank(), "x"))
				}
				p.Barrier()
				return
			}
			p.Barrier()
			// Interleave receives from both senders; each stream must
			// stay in order.
			for i := 0; i < n; i++ {
				for src := 0; src < 2; src++ {
					if m := p.Recv(src); m.Tag != i {
						h.Errorf("stream %d out of order: got %d want %d", src, m.Tag, i)
						return
					}
				}
			}
		})
		if err != nil {
			h.Fatal(err)
		}
	}},

	// The barrier's token tag is the engine's: a message carrying it
	// fails the run, naming the reserved tag, on every engine.
	{"reserved tag rejected", func(h *harness) {
		_, err := h.run(2, engine.Options{}, func(p *engine.Proc) {
			if p.Rank() == 0 {
				p.Send(1, comm.Message{Tag: engine.TokenTag})
			} else {
				p.Recv(0)
			}
		})
		h.failed(err, "rank 0", "reserved barrier tag")
	}},

	{"cyclic barrier", func(h *harness) {
		// Three back-to-back runs on one machine, each with a straggler
		// that sleeps before every round: no rank leaves a barrier before
		// the straggler enters it, so each sees exactly the round's
		// arrivals; the second barrier keeps a fast rank's next check-in
		// out of a slow rank's reading. Ranks of one process meet in
		// memory: only the leader (lowest) rank of each of W > 1 processes
		// counts barrier tokens, ⌈log2 W⌉ each way per barrier.
		const p, rounds, runs = 8, 10, 3
		parts := h.parts(p)
		// Two barriers a round: 4·rounds tokens each way per process at
		// W = 3, none at W = 1.
		perPart := 2 * rounds * bits.Len(uint(len(parts)-1))
		m := h.machine(p)
		for run := range runs {
			straggler := (3*run + 2) % p
			var arrived atomic.Int64
			res, err := m.Run(engine.Options{}, func(pr *engine.Proc) {
				for r := 1; r <= rounds; r++ {
					if pr.Rank() == straggler {
						time.Sleep(2 * time.Millisecond)
					}
					arrived.Add(1)
					pr.Barrier()
					if got := arrived.Load(); got != int64(r*p) {
						h.Errorf("run %d round %d: rank %d left the barrier after %d arrivals, want %d", run, r, pr.Rank(), got, r*p)
					}
					pr.Barrier()
				}
			})
			if err != nil {
				h.Fatalf("run %d: %v", run, err)
			}
			if want := len(parts) * perPart; res.BarrierSends != want || res.BarrierRecvs != want {
				h.Errorf("run %d: %d/%d barrier tokens, want %d/%d", run, res.BarrierSends, res.BarrierRecvs, want, want)
			}
			if w, ok := m.(*workers); ok {
				for i, r := range w.last {
					if r.BarrierSends != perPart || r.BarrierRecvs != perPart {
						h.Errorf("run %d part %d: %d/%d barrier tokens, want %d/%d", run, i, r.BarrierSends, r.BarrierRecvs, perPart, perPart)
					}
				}
			}
		}
	}},

	{"single processor", func(h *harness) {
		res, err := h.run(1, engine.Options{}, func(p *engine.Proc) {
			p.Barrier()
			p.Send(0, msg(0, 0, "self"))
			if m := p.Recv(0); string(m.Parts[0].Data) != "self" {
				h.Errorf("self message corrupted: %q", m.Parts[0].Data)
			}
		})
		if err != nil {
			h.Fatal(err)
		}
		if res.Sends != 1 || res.Recvs != 1 {
			h.Errorf("self-op counts: %+v", res.Totals)
		}
	}},

	{"invalid count", func(h *harness) {
		for _, p := range []int{0, -3} {
			if m, err := h.open(p); err == nil {
				m.Close()
				h.Errorf("machine of %d ranks accepted", p)
			}
		}
	}},

	{"panic root cause", func(h *harness) {
		for _, blocked := range []func(*engine.Proc){
			func(p *engine.Proc) { p.Recv(3) },
			func(p *engine.Proc) { p.Barrier() },
		} {
			_, err := h.run(4, engine.Options{}, func(p *engine.Proc) {
				if p.Rank() == 3 {
					panic("injected fault")
				}
				blocked(p) // would hang without the abort
			})
			h.failed(err, "rank 3: injected fault")
		}
	}},

	{"abort unwinds Recv- and Barrier-blocked peers", func(h *harness) {
		_, err := h.run(6, engine.Options{}, func(p *engine.Proc) {
			switch p.Rank() {
			case 0:
				time.Sleep(20 * time.Millisecond) // give peers time to block
				panic("rank 0 died mid-run")
			case 1, 2:
				p.Recv(0)
			default:
				p.Barrier()
			}
		})
		h.failed(err, "rank 0: rank 0 died mid-run")
	}},

	// A rank the fault injector kills on its way into a barrier is the
	// named root cause, every rank waiting there unwinds, nothing of the
	// run is left behind, and the machine runs on.
	{"injected kill", func(h *harness) {
		const p, killed = 6, 4
		m := h.machine(p)
		goroutines, fds := footprint()
		inj := inject(h.parts(p), faults.Plan{Kills: []faults.KillAt{{Rank: killed, Op: 0}}})
		var parked atomic.Int64
		_, err := m.Run(engine.Options{}, func(pr *engine.Proc) {
			c := inj.wrap(pr)
			if pr.Rank() == killed {
				for parked.Load() < p-1 {
					time.Sleep(time.Millisecond)
				}
			} else {
				parked.Add(1)
			}
			c.Barrier()
		})
		h.failed(err, fmt.Sprintf("rank %d: faults: rank %d killed at operation 0 (injected)", killed, killed))
		if ev := inj.events(); len(ev) != 1 || ev[0].Kind != faults.Kill || ev[0].Rank != killed {
			h.Errorf("event log %v, want the one kill", ev)
		}
		settled(h.T, goroutines, fds)
		if _, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, ringRound(h, p, 0)); err != nil {
			h.Fatalf("run after the kill: %v", err)
		}
	}},

	// The abort a deadline causes leaves nothing of the run behind: the
	// machine's own goroutines are all that remain (on sockets fewer, as
	// the abort closed the mesh and its pumps), before Close.
	{"recv deadline names rank and peer", func(h *harness) {
		m := h.machine(4)
		goroutines, fds := footprint()
		start := time.Now()
		_, err := m.Run(engine.Options{RecvTimeout: 100 * time.Millisecond}, func(p *engine.Proc) {
			if p.Rank() == 1 {
				p.Recv(3) // rank 3 never sends: a dead-peer hang
			}
		})
		h.failed(err, "rank 1: recv from 3: blocked 100ms (receive deadline exceeded)")
		if d := time.Since(start); d > 5*time.Second {
			h.Errorf("deadline abort took %v", d)
		}
		settled(h.T, goroutines, fds)
	}},

	// A receive deadline T expires no sooner than T after the wait began,
	// whatever the phase of the watchdog's ticks — and whether T divides
	// into them or not.
	{"recv deadline not early", func(h *harness) {
		m := h.machine(2)
		for _, timeout := range []time.Duration{100 * time.Millisecond, 61*time.Millisecond + 3} {
			var blocked time.Duration
			_, err := m.Run(engine.Options{RecvTimeout: timeout}, func(p *engine.Proc) {
				if p.Rank() == 1 {
					t0 := time.Now()
					defer func() { blocked = time.Since(t0) }()
					p.Recv(0)
				}
			})
			h.failed(err, fmt.Sprintf("rank 1: recv from 0: blocked %v (receive deadline exceeded)", timeout))
			if blocked < timeout {
				h.Errorf("receive expired after %v, before its %v deadline", blocked, timeout)
			}
		}
	}},

	// A deadline bounds each wait, not the run: waits of 0.6 T one after
	// another all succeed, receives and barriers alike.
	{"slow receives each under the deadline", func(h *harness) {
		const timeout, waits = 150 * time.Millisecond, 3
		_, err := h.run(2, engine.Options{RecvTimeout: timeout}, func(p *engine.Proc) {
			for i := 0; i < waits; i++ {
				if p.Rank() == 0 {
					time.Sleep(timeout * 6 / 10)
					p.Send(1, msg(i, 0, "x"))
				} else {
					p.Recv(0)
				}
			}
			for i := 0; i < waits; i++ {
				if p.Rank() == 0 {
					time.Sleep(timeout * 6 / 10)
				}
				p.Barrier()
			}
		})
		if err != nil {
			h.Fatalf("waits under the deadline failed: %v", err)
		}
	}},

	// A process's waiters name the ranks of their own process that never
	// came; a process none of whose ranks came is named by the leaders
	// waiting for its token. Each case leaves the waiting to one process,
	// or to waits on one absent leader, so no other process's abort can
	// overtake the report. Every failure leaves no goroutine or socket
	// behind, and the machine runs on.
	{"barrier stall names absentees", func(h *harness) {
		const p = 4
		parts := h.parts(p)
		first, last := parts[0], parts[len(parts)-1]
		m := h.machine(p)
		goroutines, fds := footprint()
		stall := func(absent func(rank int) bool) error {
			_, err := m.Run(engine.Options{RecvTimeout: 100 * time.Millisecond}, func(pr *engine.Proc) {
				if !absent(pr.Rank()) {
					pr.Barrier()
				}
			})
			settled(h.T, goroutines, fds)
			return err
		}
		for _, away := range [][]int{{1, 2}, {1}} {
			// The first process's ranks in away never come, nor does any
			// rank of another process.
			err := stall(func(r int) bool { return slices.Contains(away, r) || r >= first[1] })
			named := slices.DeleteFunc(slices.Clone(away), func(r int) bool { return r >= first[1] })
			// Every waiter reports the stall; the lowest rank's is returned.
			h.failed(err, fmt.Sprintf(": barrier: blocked 100ms (deadline exceeded) waiting for ranks %v", named))
		}
		if len(parts) > 1 {
			err := stall(func(r int) bool { return r >= last[0] })
			h.failed(err)
			if re := fmt.Sprintf(`leader rank \d+: token from leader rank %d: blocked 100ms \(receive deadline exceeded\)`, last[0]); !regexp.MustCompile(re).MatchString(err.Error()) {
				h.Errorf("error %q does not name a waiting leader and the absent one", err)
			}
		}
		if _, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, ringRound(h, p, 0)); err != nil {
			h.Fatalf("run after the stalls: %v", err)
		}
	}},

	// Only rank 0 waits: on workers each process's deadline runs on its
	// own clock, and the first to abort would break the other's link.
	{"run timeout", func(h *harness) {
		start := time.Now()
		_, err := h.run(2, engine.Options{RunTimeout: 100 * time.Millisecond}, func(p *engine.Proc) {
			if p.Rank() == 0 {
				p.Recv(1) // rank 1 leaves without sending
			}
		})
		h.failed(err, "rank 0: recv from 1: run exceeded 100ms deadline")
		if d := time.Since(start); d > 5*time.Second {
			h.Errorf("run-deadline abort took %v", d)
		}
	}},

	// The cancel leaves nothing of the run behind, and the machine runs on.
	{"context cancel", func(h *harness) {
		const p = 3
		m := h.machine(p)
		goroutines, fds := footprint()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var parked atomic.Int64
		_, err := m.Run(engine.Options{Context: ctx}, func(p *engine.Proc) {
			switch p.Rank() {
			case 0:
				for parked.Load() < 2 {
					time.Sleep(time.Millisecond)
				}
				cancel()
				<-ctx.Done()
			case 1:
				parked.Add(1)
				p.Recv(0)
			case 2:
				parked.Add(1)
				p.Barrier()
			}
		})
		want := "rank 1: recv from 0: run canceled: context canceled"
		if len(h.parts(p)) > 1 {
			// Each process sees the cancel on its own, and the first to
			// abort breaks the others' links: rank 1 may report that.
			want = "run canceled: context canceled"
		}
		h.failed(err, want)
		settled(h.T, goroutines, fds)
		if _, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, ringRound(h, p, 0)); err != nil {
			h.Fatalf("run after the cancel: %v", err)
		}
	}},

	// A context cancelled before Run starts aborts the run: ranks blocked
	// with no receive deadline unwind. RunTimeout is only a backstop.
	{"context cancelled before run", func(h *harness) {
		for i := 0; i < 5 && !h.Failed(); i++ {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			// A fresh machine each time: on sockets the abort breaks the
			// mesh, and a rebuild under a cancelled context fails first.
			_, err := h.run(2, engine.Options{Context: ctx, RunTimeout: 5 * time.Second}, func(pr *engine.Proc) {
				pr.Recv(1 - pr.Rank()) // mutual hang: nobody ever sends
			})
			h.failed(err, "run canceled: context canceled")
		}
	}},

	// A deadline or a cancellation of a run that has finished never fires:
	// on sockets it would close the mesh.
	{"finished run's deadline stays quiet", func(h *harness) {
		const p = 2
		m := h.machine(p)
		ctx, cancel := context.WithCancel(context.Background())
		if _, err := m.Run(engine.Options{Context: ctx, RunTimeout: 20 * time.Millisecond}, ringRound(h, p, 0)); err != nil {
			h.Fatal(err)
		}
		cancel()
		time.Sleep(60 * time.Millisecond) // past the finished run's deadline
		if _, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, ringRound(h, p, 1)); err != nil {
			h.Fatal(err)
		}
		if rc, ok := m.(interface{ Reconnects() int }); ok && rc.Reconnects() != 0 {
			h.Errorf("a finished run's deadline tore the mesh down (%d reconnects)", rc.Reconnects())
		}
	}},

	// Deadlines must not fire on a run with steady traffic: ring rounds,
	// then one all-to-all in which every rank hears from every other.
	{"healthy run under deadlines", func(h *harness) {
		const p, rounds = 16, 20
		_, err := h.run(p, engine.Options{RecvTimeout: 2 * time.Second, RunTimeout: 60 * time.Second}, func(pr *engine.Proc) {
			for i := 0; i < rounds; i++ {
				ringRound(h, p, i)(pr)
			}
			me := pr.Rank()
			for dst := range p {
				if dst != me {
					pr.Send(dst, msg(rounds, me, fmt.Sprint("from-", me)))
				}
			}
			for src := range p {
				if src == me {
					continue
				}
				if got := pr.Recv(src); got.Tag != rounds || string(got.Parts[0].Data) != fmt.Sprint("from-", src) {
					h.Errorf("rank %d from %d: tag %d, %q", me, src, got.Tag, got.Parts[0].Data)
				}
			}
		})
		if err != nil {
			h.Fatalf("healthy run failed under deadlines: %v", err)
		}
	}},

	{"back-to-back runs", func(h *harness) {
		const p, runs = 4, 20
		m := h.machine(p)
		for r := 0; r < runs; r++ {
			res, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, ringRound(h, p, r))
			if err != nil {
				h.Fatalf("run %d: %v", r, err)
			}
			if res.Sends != p || res.Recvs != p {
				h.Fatalf("run %d stats not per-run: %+v", r, res.Totals)
			}
		}
		// An engine whose links can break counts rebuilds; a healthy
		// session has none.
		if rc, ok := m.(interface{ Reconnects() int }); ok && rc.Reconnects() != 0 {
			h.Errorf("healthy back-to-back runs rebuilt the mesh %d times", rc.Reconnects())
		}
	}},

	// A message nobody received in run 1 must not be delivered in run 2:
	// the Recv from the same peer times out instead.
	{"no cross-run bleed", func(h *harness) {
		m := h.machine(2)
		if _, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, func(p *engine.Proc) {
			if p.Rank() == 0 {
				p.Send(1, msg(1, 0, "wanted"))
				p.Send(1, msg(2, 0, "orphan"))
			} else {
				p.Recv(0) // consumes "wanted"; "orphan" is left behind
			}
		}); err != nil {
			h.Fatal(err)
		}
		_, err := m.Run(engine.Options{RecvTimeout: 200 * time.Millisecond}, func(p *engine.Proc) {
			if p.Rank() == 1 {
				h.Errorf("stale message bled into the next run: %+v", p.Recv(0))
			}
		})
		h.failed(err, "rank 1: recv from 0", "deadline")
	}},

	// An aborted run — peers unwound from Recv and from a half-entered
	// barrier — must not poison the machine.
	{"recovery after abort", func(h *harness) {
		const p = 4
		m := h.machine(p)
		_, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, func(pr *engine.Proc) {
			switch pr.Rank() {
			case 0:
				time.Sleep(10 * time.Millisecond)
				panic("rank 0 died")
			case 1:
				pr.Recv(0)
			default:
				pr.Barrier() // abandoned mid-round: arrivals must reset
			}
		})
		h.failed(err, "rank 0: rank 0 died")
		for r := 0; r < 3; r++ {
			if _, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, ringRound(h, p, r)); err != nil {
				h.Fatalf("post-abort run %d failed: %v", r, err)
			}
		}
	}},

	// runtime.Goexit (what t.FailNow calls) takes the rank's goroutine
	// with it: Run still returns, the machine still runs, and Close still
	// leaves the goroutine count at its baseline (checked by the runner).
	{"rank exits via Goexit", func(h *harness) {
		const p = 3
		m := h.machine(p)
		if _, err := m.Run(engine.Options{}, func(pr *engine.Proc) {
			if pr.Rank() == 1 {
				runtime.Goexit()
			}
		}); err != nil {
			h.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			if _, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, ringRound(h, p, r)); err != nil {
				h.Fatalf("run %d after a Goexit: %v", r, err)
			}
		}
	}},

	// Whether the machine ever ran or not.
	{"Run on closed machine", func(h *harness) {
		for _, runFirst := range []bool{false, true} {
			m := h.machine(2)
			if runFirst {
				if _, err := m.Run(engine.Options{}, func(p *engine.Proc) { p.Barrier() }); err != nil {
					h.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ { // Close is idempotent
				if err := m.Close(); err != nil {
					h.Fatalf("Close %d: %v", i, err)
				}
			}
			_, err := m.Run(engine.Options{}, func(*engine.Proc) {})
			h.failed(err, "Run on closed machine")
		}
	}},

	// Received storage is the caller's until it releases the run: later
	// runs — each released, so their own storage is recycled — never
	// decode into a run nobody released. The first run is released only
	// so that the machine recycles at all.
	{"unreleased bundles survive later runs", func(h *harness) {
		m := h.machine(ownP)
		_, e := exchange(h, m, 0)
		release(m, e)
		kept, _ := exchange(h, m, 1)
		for run := 2; run <= 4; run++ {
			got, e := exchange(h, m, run)
			intact(h, got, run)
			release(m, e)
		}
		intact(h, kept, 1)
	}},

	// A released run's storage is where the next run's frames land, byte
	// for byte: the same buffers, so a warm released run allocates almost
	// nothing for what it receives.
	{"released storage is reused", func(h *harness) {
		m := h.machine(ownP)
		if _, ok := m.(owner); !ok {
			h.Skip("in-memory messages are handed over, not decoded into storage of the machine's")
		}
		_, e := exchange(h, m, 0)
		release(m, e)
		prev, e := exchange(h, m, 1)
		release(m, e)
		got, e := exchange(h, m, 2)
		intact(h, got, 2)
		for me, parts := range got {
			for i, part := range parts {
				if unsafe.SliceData(part.Data) != unsafe.SliceData(prev[me][i].Data) {
					h.Errorf("rank %d's part %d was decoded into new storage, not the released run's", me, i)
				}
			}
		}
		release(m, e)

		// The bytes a run allocates with and without releasing: the least
		// of several rounds, so a collection during one does not count.
		large := make([]byte, 64<<10)
		body := func(pr *engine.Proc) {
			pr.Send((pr.Rank()+2)%ownP, comm.Message{Parts: []comm.Part{{Origin: pr.Rank(), Data: large}}})
			pr.Recv((pr.Rank() + 2) % ownP)
		}
		perRun := func(recycle bool) uint64 {
			least := uint64(math.MaxUint64)
			for range 5 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range 5 {
					if _, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, body); err != nil {
						h.Fatal(err)
					}
					if recycle {
						release(m, epochOf(m))
					}
				}
				runtime.ReadMemStats(&after)
				least = min(least, (after.TotalAlloc-before.TotalAlloc)/5)
			}
			return least
		}
		kept, released := perRun(false), perRun(true)
		h.Logf("%d bytes per run kept, %d released", kept, released)
		if received := uint64(ownP * len(large)); kept < received || released > received/10 {
			h.Errorf("%d bytes per run kept, %d released: want at least the %d received, and a tenth of that", kept, released, received)
		}
	}},

	// Releasing twice is releasing once, and a release that comes after a
	// later run has started is too late to take effect: neither may hand
	// out storage a result still holds.
	{"Release twice and after a later run", func(h *harness) {
		m := h.machine(ownP)
		_, e := exchange(h, m, 0)
		release(m, e)
		_, a := exchange(h, m, 1)
		release(m, a)
		release(m, a)
		b, eb := exchange(h, m, 2)
		release(m, a) // b started since: too late
		c, ec := exchange(h, m, 3)
		intact(h, b, 2)
		intact(h, c, 3)
		release(m, eb) // c started since: too late
		d, _ := exchange(h, m, 4)
		release(m, ec)
		intact(h, b, 2)
		intact(h, c, 3)
		intact(h, d, 4)

		// Too late even where nothing arrived since: after a run with no
		// traffic, the readers still hold x's storage, and must keep it.
		x, ex := exchange(h, m, 5)
		if _, err := m.Run(engine.Options{}, func(*engine.Proc) {}); err != nil {
			h.Fatal(err)
		}
		release(m, ex)
		exchange(h, m, 6)
		intact(h, x, 5)
	}},

	// A run's part arrays are handed to the next run once its consumer
	// marks them dead (Recycle), the ranks' own and the ones frames were
	// decoded into alike; a run nobody marked keeps them. The first mark
	// only makes the machine list its arrays, so the run after the second
	// is the first to reuse any.
	{"recycled part arrays are reused, unmarked ones kept", func(h *harness) {
		m := h.machine(ownP)
		rec := m.(interface{ Recycle() })
		round := func(run int) (own, got [][]comm.Part) {
			h.Helper()
			own, got = make([][]comm.Part, ownP), make([][]comm.Part, ownP)
			_, err := m.Run(engine.Options{RecvTimeout: 5 * time.Second}, func(pr *engine.Proc) {
				me := pr.Rank()
				a := append(pr.PartArray(3), comm.Part{Origin: me, Data: ownedPart(run, me, 0)}, comm.Part{Origin: me, Data: ownedPart(run, me, 1)})
				pr.SendShared((me+2)%ownP, comm.Message{Tag: run, Parts: a})
				own[me], got[me] = a, pr.Recv((me+2)%ownP).Parts
			})
			if err != nil {
				h.Fatalf("run %d: %v", run, err)
			}
			return own, got
		}
		_, kept := round(0)
		round(1)
		rec.Recycle()
		own2, got2 := round(2)
		rec.Recycle()
		own3, got3 := round(3)
		intact(h, kept, 0)
		intact(h, got3, 3)
		for me := range own3 {
			if unsafe.SliceData(own3[me]) != unsafe.SliceData(own2[me]) {
				h.Errorf("rank %d built its array anew, not in the marked run's", me)
			}
			if unsafe.SliceData(got3[me]) != unsafe.SliceData(got2[me]) {
				h.Errorf("rank %d received into a new part array, not the marked run's", me)
			}
			if p := own2[me][:3][2]; p.Origin != comm.RecycledOrigin {
				h.Errorf("rank %d: a recycled array's unwritten slot holds %+v, not the recycled fill", me, p)
			}
		}
	}},

	{"traced event sequence", func(h *harness) {
		tr := &seqTracer{}
		release := make(chan struct{})
		_, err := h.run(2, engine.Options{Tracer: tr}, func(p *engine.Proc) {
			p.BeginIter(2)
			p.BeginPhase("ping")
			if p.Rank() == 0 {
				<-release                    // rank 1 is about to block in Recv
				time.Sleep(time.Millisecond) // and is blocked by now
				p.Send(1, msg(7, 0, "hello"))
				p.Recv(1)
			} else {
				close(release)
				p.Recv(0)
				p.Send(0, msg(8, 1, "world!"))
			}
			p.Barrier()
		})
		if err != nil {
			h.Fatal(err)
		}
		kinds := make([][]string, 2)
		waited := false
		for _, e := range tr.events {
			if e.Iter != 2 || e.Phase != "ping" || e.Wall < 0 {
				h.Errorf("event without markers or clock: %+v", e)
			}
			switch e.Kind {
			case obs.KindWait: // rank 1's blocked Recv; rank 0's is timing-dependent
				if e.Peer != 1-e.Rank {
					h.Errorf("rank %d waited on peer %d", e.Rank, e.Peer)
				}
				waited = waited || e.Rank == 1
				continue
			case obs.KindSend:
				if want := []int{5, 6}[e.Rank]; e.Bytes != want || e.Tag != 7+e.Rank || e.Peer != 1-e.Rank || e.Parts != 1 {
					h.Errorf("send event metadata: %+v", e)
				}
			case obs.KindRecv:
				// The arrival stamp cannot postdate the recv's completion.
				if e.Arrival <= 0 || int64(e.Arrival) > e.Wall {
					h.Errorf("recv arrival stamp %d outside (0, wall %d]", e.Arrival, e.Wall)
				}
			}
			kinds[e.Rank] = append(kinds[e.Rank], e.Kind)
		}
		for rank, want := range []string{"send recv barrier", "recv send barrier"} {
			if got := strings.Join(kinds[rank], " "); got != want {
				h.Errorf("rank %d traced %q, want %q", rank, got, want)
			}
		}
		if !waited {
			h.Error("rank 1's blocked Recv traced no wait")
		}
	}},
}

func TestConformance(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, e := range engines {
				t.Run(e.name, func(t *testing.T) {
					goroutines, fds := footprint()
					h := &harness{T: t, prefix: e.prefix, open: e.open, parts: e.parts}
					defer func() {
						for _, m := range h.opened {
							m.Close()
						}
						settled(t, goroutines, fds)
					}()
					sc.run(h)
				})
			}
		})
	}
}

// TestChaosEventLogSameOnEveryMachine: a fault schedule is a function of
// its plan alone, so one seed injects the same faults on every machine —
// on the split mesh too, where each process wraps its own ranks with an
// injector of its own, so no fault state crosses a process boundary —
// and duplicates and delays leave every delivery exact.
func TestChaosEventLogSameOnEveryMachine(t *testing.T) {
	const p, rounds = 8, 3
	plan := faults.Plan{Seed: 5, Duplicate: 0.3, DelayProb: 0.2, MaxDelay: 200 * time.Microsecond}
	payload := func(round, src, dst int) string { return fmt.Sprintf("round %d: %d→%d", round, src, dst) }
	var want []faults.Event
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			m, err := e.open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			inj := inject(e.parts(p), plan)
			_, err = m.Run(engine.Options{RecvTimeout: 10 * time.Second}, func(pr *engine.Proc) {
				c, me := inj.wrap(pr), pr.Rank()
				for round := range rounds {
					for dst := range p {
						if dst != me {
							c.Send(dst, msg(round, me, payload(round, me, dst)))
						}
					}
					for src := range p {
						if src == me {
							continue
						}
						if got := c.Recv(src); got.Tag != round || string(got.Parts[0].Data) != payload(round, src, me) {
							t.Errorf("rank %d from %d: tag %d, %q, want tag %d, %q", me, src, got.Tag, got.Parts[0].Data, round, payload(round, src, me))
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			got := inj.events()
			switch {
			case len(got) == 0:
				t.Fatal("plan injected nothing; the test is vacuous")
			case want == nil:
				want = got
			case !slices.Equal(got, want):
				t.Errorf("event log differs from %s's:\n%v\nvs\n%v", engines[0].name, got, want)
			}
		})
	}
}

// TestRecvDeadlineAllocatesNothing: on both transports, a ping-pong run
// whose receives block allocates no more with RecvTimeout set than
// without — the deadline is the watchdog's work, not the wait's. The
// workers machine is the sockets transport in parts; its runs' own
// goroutines and guard would be counted too.
func TestRecvDeadlineAllocatesNothing(t *testing.T) {
	ping, pong := msg(1, 0, "ping"), msg(2, 1, "pong")
	pingPong := func(pr *engine.Proc) {
		for i := 0; i < 20; i++ {
			if pr.Rank() == 0 {
				pr.Send(1, ping)
				pr.Recv(1)
			} else {
				pr.Recv(0)
				pr.Send(0, pong)
			}
		}
	}
	for _, e := range engines {
		if e.name == "workers" {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			m, err := e.open(2)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			without, with := math.Inf(1), math.Inf(1)
			count := func(timeout time.Duration) float64 {
				return testing.AllocsPerRun(50, func() {
					if _, err := m.Run(engine.Options{RecvTimeout: timeout}, pingPong); err != nil {
						t.Fatal(err)
					}
				})
			}
			for range 5 { // alternating, the least of each
				without, with = min(without, count(0)), min(with, count(time.Minute))
			}
			t.Logf("%.0f allocations per run without a receive deadline, %.0f with", without, with)
			if with > without*(1+deadlineAllocSlack) {
				t.Errorf("a receive deadline costs %.0f allocations per run", with-without)
			}
		})
	}
}

// TestSocketsHeldFrameReleasedOnTeardown: a cluster worker's pump holds
// a frame stamped with an epoch its machine has not armed (a peer worker
// started first). If that run never comes here, tearing the mesh down —
// ResetMesh or Close — must drop the frame and end the pump, with
// goroutines and descriptors back at baseline. Sockets only: the memory
// transport has no pumps and no cross-process runs.
func TestSocketsHeldFrameReleasedOnTeardown(t *testing.T) {
	for _, teardown := range []string{"ResetMesh", "Close"} {
		t.Run(teardown, func(t *testing.T) {
			goroutines, fds := footprint()
			m, err := openWorkers(2)
			if err != nil {
				t.Fatal(err)
			}
			w := m.(*workers)
			idle, early := w.parts[0], w.parts[1]
			if _, err := early.Run(tcp.Options{Epoch: 7}, func(p *engine.Proc) { p.Send(0, msg(1, 1, "early")) }); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); !pumpHolding(); {
				if time.Now().After(deadline) {
					t.Fatal("the idle worker's pump never held the early frame")
				}
				time.Sleep(time.Millisecond)
			}

			done := make(chan error, 1)
			go func() {
				if teardown == "ResetMesh" {
					done <- idle.ResetMesh()
				} else {
					done <- idle.Close()
				}
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s blocked on the pump holding the early frame", teardown)
			}
			w.Close()
			settled(t, goroutines, fds)
		})
	}
}

// pumpHolding reports whether some goroutine is parked holding a frame.
func pumpHolding() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "tcp.(*Machine).hold")
}
