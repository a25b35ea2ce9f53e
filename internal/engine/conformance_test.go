package engine_test

// The conformance table of the real-byte engines: one list of lifecycle
// scenarios, run against every transport of the core — memory
// (internal/live) and sockets (internal/tcp) — with failures named
// scenario/engine. A scenario states what comm.Comm and the run
// lifecycle promise; nothing in it may depend on how messages travel.
// Transport-only behaviour (frame codec, dial retry, reconnects, pre-run
// dials, worker machines) is tested in internal/tcp.

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// machine is what a scenario drives: one engine's persistent machine.
type machine interface {
	Run(engine.Options, func(*engine.Proc)) (*engine.Result, error)
	Close() error
}

// sockets adapts tcp.Machine's wider run options to the core's.
type sockets struct{ *tcp.Machine }

func (s sockets) Run(o engine.Options, fn func(*engine.Proc)) (*engine.Result, error) {
	return s.Machine.Run(tcp.Options{
		Context: o.Context, RunTimeout: o.RunTimeout, RecvTimeout: o.RecvTimeout, Tracer: o.Tracer,
	}, fn)
}

// engines are the transports under test. name is the prefix every error
// of that engine must carry.
var engines = []struct {
	name, prefix string
	open         func(p int) (machine, error)
}{
	{"memory", "live: ", func(p int) (machine, error) {
		m, err := live.NewMachine(p)
		if err != nil {
			return nil, err
		}
		return m, nil
	}},
	{"sockets", "tcp: ", func(p int) (machine, error) {
		m, err := tcp.NewMachine(p, tcp.Options{})
		if err != nil {
			return nil, err
		}
		return sockets{m}, nil
	}},
}

// harness is one scenario's view of one engine.
type harness struct {
	*testing.T
	prefix string
	open   func(p int) (machine, error)
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
func (h *harness) run(p int, opts engine.Options, fn func(*engine.Proc)) (*engine.Result, error) {
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
		for _, ps := range res.Procs {
			if ps.Sends != 1 || ps.Recvs != 1 || ps.SendBytes != 5 || ps.RecvBytes != 5 {
				h.Errorf("rank %d counts: %+v", ps.Rank, ps)
			}
		}
	}},

	{"send copies payload", func(h *harness) {
		_, err := h.run(2, engine.Options{}, func(p *engine.Proc) {
			if p.Rank() == 0 {
				buf := []byte("original")
				p.Send(1, comm.Message{Parts: []comm.Part{{Data: buf}}})
				copy(buf, "CLOBBER!") // must not affect the in-flight message
			} else if m := p.Recv(0); !bytes.Equal(m.Parts[0].Data, []byte("original")) {
				h.Errorf("payload aliased: %q", m.Parts[0].Data)
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

	{"FIFO per pair", func(h *harness) {
		const n = 200
		_, err := h.run(3, engine.Options{}, func(p *engine.Proc) {
			if p.Rank() < 2 {
				for i := 0; i < n; i++ {
					p.Send(2, msg(i, p.Rank(), "x"))
				}
				return
			}
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

	{"cyclic barrier", func(h *harness) {
		const p, rounds = 8, 10
		var counter atomic.Int64
		_, err := h.run(p, engine.Options{}, func(pr *engine.Proc) {
			for r := 0; r < rounds; r++ {
				counter.Add(1)
				pr.Barrier()
				// After each barrier, everyone must observe the full round.
				if got := counter.Load(); got < int64((r+1)*p) {
					h.Errorf("round %d: counter %d < %d after barrier", r, got, (r+1)*p)
				}
				pr.Barrier()
			}
		})
		if err != nil {
			h.Fatal(err)
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
		if res.Procs[0].Sends != 1 || res.Procs[0].Recvs != 1 {
			h.Errorf("self-op counts: %+v", res.Procs[0])
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

	{"recv deadline names rank and peer", func(h *harness) {
		start := time.Now()
		_, err := h.run(4, engine.Options{RecvTimeout: 100 * time.Millisecond}, func(p *engine.Proc) {
			if p.Rank() == 1 {
				p.Recv(3) // rank 3 never sends: a dead-peer hang
			}
		})
		h.failed(err, "rank 1: recv from 3: blocked 100ms", "deadline")
		if d := time.Since(start); d > 5*time.Second {
			h.Errorf("deadline abort took %v", d)
		}
	}},

	{"barrier stall names absentees", func(h *harness) {
		_, err := h.run(4, engine.Options{RecvTimeout: 100 * time.Millisecond}, func(p *engine.Proc) {
			if p.Rank() == 1 || p.Rank() == 2 {
				return // never enter the barrier
			}
			p.Barrier()
		})
		// Whichever waiter wakes first reports; the other unwinds.
		h.failed(err, ": barrier: blocked 100ms (deadline exceeded) waiting for ranks [1 2]")
	}},

	{"run timeout", func(h *harness) {
		start := time.Now()
		_, err := h.run(2, engine.Options{RunTimeout: 100 * time.Millisecond}, func(p *engine.Proc) {
			p.Recv(1 - p.Rank()) // mutual hang: nobody ever sends
		})
		h.failed(err, "rank 0: recv from 1: run exceeded 100ms deadline")
		if d := time.Since(start); d > 5*time.Second {
			h.Errorf("run-deadline abort took %v", d)
		}
	}},

	{"context cancel", func(h *harness) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var parked atomic.Int64
		_, err := h.run(3, engine.Options{Context: ctx}, func(p *engine.Proc) {
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
		h.failed(err, "rank 1: recv from 0: run canceled: context canceled")
	}},

	// Deadlines must not fire on a run with steady traffic.
	{"healthy run under deadlines", func(h *harness) {
		const p, rounds = 4, 20
		_, err := h.run(p, engine.Options{RecvTimeout: 2 * time.Second, RunTimeout: 60 * time.Second}, func(pr *engine.Proc) {
			for i := 0; i < rounds; i++ {
				ringRound(h, p, i)(pr)
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
			if res.Procs[0].Sends != 1 || res.Procs[0].Recvs != 1 {
				h.Fatalf("run %d stats not per-run: %+v", r, res.Procs[0])
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

	{"Run on closed machine", func(h *harness) {
		m := h.machine(2)
		if _, err := m.Run(engine.Options{}, func(p *engine.Proc) { p.Barrier() }); err != nil {
			h.Fatal(err)
		}
		for i := 0; i < 2; i++ { // Close is idempotent
			if err := m.Close(); err != nil {
				h.Fatalf("Close %d: %v", i, err)
			}
		}
		_, err := m.Run(engine.Options{}, func(*engine.Proc) {})
		h.failed(err, "Run on closed machine")
	}},

	{"traced event sequence", func(h *harness) {
		tr := &seqTracer{}
		release := make(chan struct{})
		_, err := h.run(2, engine.Options{Tracer: tr}, func(p *engine.Proc) {
			p.BeginIter(2)
			p.BeginPhase("ping")
			if p.Rank() == 0 {
				<-release // rank 1 is provably about to block in Recv
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
		for _, e := range tr.events {
			if e.Iter != 2 || e.Phase != "ping" || e.Wall < 0 {
				h.Errorf("event without markers or clock: %+v", e)
			}
			switch e.Kind {
			case obs.KindWait: // timing-dependent: not part of the sequence
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
	}},
}

func TestConformance(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, e := range engines {
				t.Run(e.name, func(t *testing.T) {
					goroutines, fds := footprint()
					h := &harness{T: t, prefix: e.prefix, open: e.open}
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
			leaders := []int{0, 1}
			idle, early := workerMachine(t, 0, leaders), workerMachine(t, 1, leaders)
			addrs := map[int]string{}
			for _, m := range []*tcp.Machine{idle, early} {
				for r, a := range m.LocalAddrs() {
					addrs[r] = a
				}
			}
			var wg sync.WaitGroup
			for _, m := range []*tcp.Machine{idle, early} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := m.ConnectMesh(context.Background(), addrs); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
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
			idle.Close()
			early.Close()
			settled(t, goroutines, fds)
		})
	}
}

// workerMachine is rank r of a two-rank mesh split one rank per worker.
func workerMachine(t *testing.T, r int, leaders []int) *tcp.Machine {
	t.Helper()
	m, err := tcp.NewWorkerMachine(2, r, r+1, leaders, tcp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pumpHolding reports whether some goroutine is parked holding a frame.
func pumpHolding() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "tcp.(*Machine).hold")
}
