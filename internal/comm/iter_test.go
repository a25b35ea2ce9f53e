package comm_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// event is what a rank's executor told its communicator: an iteration or
// a phase begun, a barrier, or a send to or receive from peer n in
// iteration iter (the last begun, -1 before any).
type event struct {
	kind    string
	n, iter int
	phase   string
}

// marker is a communicator that logs every event of its rank in order.
type marker struct {
	comm.Comm
	iter int
	log  []event
}

func (m *marker) BeginIter(i int) {
	m.iter = i
	m.log = append(m.log, event{kind: "iter", n: i})
}

func (m *marker) BeginPhase(name string) { m.log = append(m.log, event{kind: "phase", phase: name}) }

func (m *marker) Send(peer int, msg comm.Message) {
	m.log = append(m.log, event{kind: obs.KindSend, n: peer, iter: m.iter})
	m.Comm.Send(peer, msg)
}

func (m *marker) Recv(peer int) comm.Message {
	m.log = append(m.log, event{kind: obs.KindRecv, n: peer, iter: m.iter})
	return m.Comm.Recv(peer)
}

func (m *marker) Barrier() {
	m.log = append(m.log, event{kind: "barrier"})
	m.Comm.Barrier()
}

// logsOf runs one of the ways to execute a script on the live engine and
// returns each rank's events.
func logsOf(t *testing.T, p int, run func(c comm.Comm, mine comm.Message) comm.Message) [][]event {
	t.Helper()
	logs := make([][]event, p)
	if _, err := liveRun(p, live.Options{RecvTimeout: 5 * time.Second}, func(pr *live.Proc) {
		m := &marker{Comm: pr, iter: -1}
		run(m, comm.Message{Parts: []comm.Part{{Origin: pr.Rank(), Data: []byte{1, 2, 3, 4}}}})
		logs[pr.Rank()] = m.log
	}); err != nil {
		t.Fatal(err)
	}
	return logs
}

// factsOfLogs is comm.Facts read off what the ranks did: every iteration
// begun counts, a send or receive belongs to the last one begun —
// iteration 0 before any — and a send to another rank is a link.
func factsOfLogs(logs [][]event) comm.Facts {
	var f comm.Facts
	for rank, log := range logs {
		var ops []int
		grow := func(it int) {
			for len(ops) <= it {
				ops = append(ops, 0)
			}
		}
		total := 0
		for _, e := range log {
			switch e.kind {
			case "iter":
				grow(e.n)
			case obs.KindSend, obs.KindRecv:
				it := max(e.iter, 0)
				grow(it)
				ops[it]++
				total++
				if l := [2]int{rank, e.n}; e.kind == obs.KindSend && e.n != rank && !slices.Contains(f.Links, l) {
					f.Links = append(f.Links, l)
				}
			}
		}
		f.SendRec = max(f.SendRec, total)
		for len(f.Active) < len(ops) {
			f.Active = append(f.Active, 0)
		}
		for i, n := range ops {
			f.Congestion = max(f.Congestion, n)
			if n > 0 {
				f.Active[i]++
			}
		}
	}
	f.Iterations = len(f.Active)
	slices.SortFunc(f.Links, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
	return f
}

// pair exchanges register 0 with the rank's partner, rank^1.
func pair(b *comm.Builder, rank int) {
	b.Send(rank^1, 0)
	b.Recv(rank^1, 0)
}

// TestCompiledMarksMatchPerformed holds the marks a compiled program
// carries on its operations (comm.Op.Adv) to the marks the script writes:
// for every script of the table, the ranks that execute the program
// (Program.Run) begin the same iterations, phases and barriers, and send
// and receive in the same iterations, as the ranks that perform the
// script (Script.Run); Program.Facts reads off the program what they
// did, their links included; and the simulator's replay stamps every
// send and receive with that iteration — or, for a script that marks a
// negative iteration, fails.
func TestCompiledMarksMatchPerformed(t *testing.T) {
	const p = 4
	for _, tc := range []struct {
		name     string
		negative bool
		rank     func(b *comm.Builder, rank int)
	}{
		{"idle iterations", false, func(b *comm.Builder, rank int) {
			for it := range 9 {
				b.Iter(it)
				if it%(2+rank/2) == 0 {
					pair(b, rank)
				}
			}
		}},
		{"a run of more than 255 marks", false, func(b *comm.Builder, rank int) {
			for it := range 600 {
				b.Iter(it)
				if it == 1 || it == 300+rank/2 {
					pair(b, rank)
				}
			}
		}},
		{"a forward and a backward jump", false, func(b *comm.Builder, rank int) {
			for _, it := range []int{0, 3, 4, 5, 6, 1} {
				b.Iter(it)
			}
			pair(b, rank)
			b.Iter(2)
			pair(b, rank)
			b.Iter(3)
		}},
		{"a negative mark", true, func(b *comm.Builder, rank int) {
			for _, it := range []int{-3, -2, -1, 0} {
				b.Iter(it)
			}
			pair(b, rank)
			b.Iter(-1)
			b.Iter(0)
			pair(b, rank)
		}},
		{"marks before a barrier and a phase, and trailing", false, func(b *comm.Builder, rank int) {
			b.Phase("a")
			b.Iter(0)
			b.Iter(1)
			b.Barrier()
			b.Iter(2)
			b.Phase("b")
			pair(b, rank)
			if rank%2 == 0 {
				b.Sub([]int{0, 2}, rank/2)
				b.Iter(3)
				b.Barrier()
				b.Top()
			}
			for it := 4; it < 4+rank; it++ {
				b.Iter(it)
			}
		}},
		{"then: a send before iteration 0 is marked", false, func(b *comm.Builder, rank int) {
			pair(b, rank)
			b.Iter(0)
			pair(b, rank)
			b.Iter(1)
			b.Iter(2)
			pair(b, rank)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := comm.Script{Rank: tc.rank}
			prog, err := sc.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			performed := logsOf(t, p, sc.Run)
			if compiled := logsOf(t, p, prog.Run); !reflect.DeepEqual(compiled, performed) {
				t.Fatalf("compiled:\n%v\nperformed:\n%v", compiled, performed)
			}
			if got, want := *prog.Facts(), factsOfLogs(performed); !reflect.DeepEqual(got, want) {
				t.Errorf("Facts says %+v, the ranks did %+v", got, want)
			}

			nw, err := network.New(topology.MustMesh2D(1, p), topology.IdentityPlacement(p), network.ParagonNX())
			if err != nil {
				t.Fatal(err)
			}
			var traced eventLog
			_, err = sim.Replay(nw, prog, func(int) (int, int) { return 4, 1 }, sim.Options{Tracer: &traced})
			if tc.negative {
				if err == nil || !strings.Contains(err.Error(), "negative iteration") {
					t.Errorf("replaying a negative mark: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			replayed := make([][]event, p)
			for _, e := range traced {
				if e.Kind == obs.KindSend || e.Kind == obs.KindRecv {
					replayed[e.Rank] = append(replayed[e.Rank], event{kind: e.Kind, n: e.Peer, iter: e.Iter})
				}
			}
			for r, log := range performed {
				var want []event
				for _, e := range log {
					if e.kind == obs.KindSend || e.kind == obs.KindRecv {
						want = append(want, event{kind: e.kind, n: e.n, iter: max(e.iter, 0)})
					}
				}
				if !reflect.DeepEqual(replayed[r], want) {
					t.Errorf("rank %d: the replay stamps %v, the rank did %v", r, replayed[r], want)
				}
			}
		})
	}
}

// TestFactsComputedOnce: goroutines that ask a fresh program for its
// facts at once all get the same Facts, and a later call gets it too.
func TestFactsComputedOnce(t *testing.T) {
	const p = 8
	prog, err := comm.Script{Rank: pair}.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*comm.Facts, p)
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[r] = prog.Facts()
		}()
	}
	wg.Wait()
	for r, f := range got {
		if f == nil || f != prog.Facts() {
			t.Fatalf("goroutine %d got facts %p, the program keeps %p", r, f, prog.Facts())
		}
	}
}

// eventLog is a tracer that keeps every event.
type eventLog []obs.Event

func (l *eventLog) Trace(e obs.Event) { *l = append(*l, e) }

// TestIdleMarksCompileAway is the program-size gate of the encoding: a
// rank that marks n iterations and then sends compiles to the send
// carrying the marks, and one OpIter every 256 marks.
func TestIdleMarksCompileAway(t *testing.T) {
	for _, n := range []int{1, 255, 256, 511} {
		sc := comm.Script{Rank: func(b *comm.Builder, rank int) {
			for it := range n {
				b.Iter(it)
			}
			b.Send(0, 0)
		}}
		prog, err := sc.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		if ops := prog.Ops(0); len(ops) > 2 {
			t.Errorf("%d idle marks and a send compile to %d operations, want at most 2", n, len(ops))
		}
	}
}

// String renders an event for failure messages.
func (e event) String() string {
	switch e.kind {
	case "iter":
		return fmt.Sprint("iter ", e.n)
	case "phase":
		return "phase " + e.phase
	case "barrier":
		return e.kind
	}
	return fmt.Sprintf("%s %d in %d", e.kind, e.n, e.iter)
}
