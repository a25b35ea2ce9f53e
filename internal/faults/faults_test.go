package faults

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/obs"
)

// fakeEngine is a single-threaded two-sided mailbox: good enough to
// exercise the injector's send/recv interception without goroutines.
type fakeEngine struct {
	size   int
	queues map[[2]int][]comm.Message
	iters  []int
}

type fakeProc struct {
	eng  *fakeEngine
	rank int
}

func newFakeEngine(size int) *fakeEngine {
	return &fakeEngine{size: size, queues: make(map[[2]int][]comm.Message)}
}

func (e *fakeEngine) proc(rank int) *fakeProc { return &fakeProc{eng: e, rank: rank} }

func (p *fakeProc) Rank() int { return p.rank }
func (p *fakeProc) Size() int { return p.eng.size }
func (p *fakeProc) Send(dst int, m comm.Message) {
	k := [2]int{p.rank, dst}
	p.eng.queues[k] = append(p.eng.queues[k], m)
}
func (p *fakeProc) Recv(src int) comm.Message {
	k := [2]int{src, p.rank}
	q := p.eng.queues[k]
	if len(q) == 0 {
		panic(fmt.Sprintf("fake: rank %d recv from %d on empty queue", p.rank, src))
	}
	m := q[0]
	p.eng.queues[k] = q[1:]
	return m
}
func (p *fakeProc) Barrier()        {}
func (p *fakeProc) BeginIter(i int) { p.eng.iters = append(p.eng.iters, i) }

func msg(origin int, payload string) comm.Message {
	return comm.Message{Parts: []comm.Part{{Origin: origin, Data: []byte(payload)}}}
}

func TestScheduleIsSeedDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Drop: 0.3, Duplicate: 0.3, Corrupt: 0.2, DelayProb: 0.4, MaxDelay: time.Microsecond}
	run := func() []Event {
		eng := newFakeEngine(2)
		in := New(plan)
		s := in.Wrap(eng.proc(0))
		for i := 0; i < 50; i++ {
			s.Send(1, msg(0, fmt.Sprintf("m%d", i)))
		}
		return in.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults fired at these rates over 50 messages")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("schedule differs across runs with identical seed:\n%v\nvs\n%v", a, b)
	}
	// A different seed must produce a different schedule.
	plan.Seed = 43
	if c := func() []Event {
		eng := newFakeEngine(2)
		in := New(plan)
		s := in.Wrap(eng.proc(0))
		for i := 0; i < 50; i++ {
			s.Send(1, msg(0, fmt.Sprintf("m%d", i)))
		}
		return in.Events()
	}(); reflect.DeepEqual(a, c) {
		t.Fatal("seed 42 and 43 produced the identical schedule")
	}
}

func TestDropNeverReachesEngine(t *testing.T) {
	eng := newFakeEngine(2)
	in := New(Plan{Faults: []Fault{{Kind: Drop, Src: 0, Dst: 1, Msg: 1}}})
	s := in.Wrap(eng.proc(0))
	s.Send(1, msg(0, "keep-0"))
	s.Send(1, msg(0, "dropped"))
	s.Send(1, msg(0, "keep-1"))
	if got := len(eng.queues[[2]int{0, 1}]); got != 2 {
		t.Fatalf("engine saw %d messages, want 2 (one dropped)", got)
	}
	r := in.Wrap(eng.proc(1))
	if m := r.Recv(0); string(m.Parts[0].Data) != "keep-0" {
		t.Fatalf("first delivery %q", m.Parts[0].Data)
	}
	if m := r.Recv(0); string(m.Parts[0].Data) != "keep-1" {
		t.Fatalf("second delivery %q", m.Parts[0].Data)
	}
	evs := in.Events()
	if len(evs) != 1 || evs[0].Kind != Drop || evs[0].Msg != 1 {
		t.Fatalf("events = %v", evs)
	}
}

func TestDuplicateIsDetectedAndDiscarded(t *testing.T) {
	eng := newFakeEngine(2)
	in := New(Plan{Faults: []Fault{{Kind: Duplicate, Src: 0, Dst: 1, Msg: 0}}})
	s := in.Wrap(eng.proc(0))
	s.Send(1, msg(0, "first"))
	s.Send(1, msg(0, "second"))
	if got := len(eng.queues[[2]int{0, 1}]); got != 3 {
		t.Fatalf("engine saw %d deliveries, want 3 (original + dup + second)", got)
	}
	r := in.Wrap(eng.proc(1))
	if m := r.Recv(0); string(m.Parts[0].Data) != "first" {
		t.Fatalf("first recv %q", m.Parts[0].Data)
	}
	// The duplicate must be transparently skipped: the next Recv
	// returns "second", not the duplicated "first".
	if m := r.Recv(0); string(m.Parts[0].Data) != "second" {
		t.Fatalf("second recv %q (duplicate leaked to the algorithm)", m.Parts[0].Data)
	}
}

func TestCorruptionIsDetectedAtReceiver(t *testing.T) {
	eng := newFakeEngine(2)
	in := New(Plan{Faults: []Fault{{Kind: Corrupt, Src: 0, Dst: 1, Msg: 0}}})
	s := in.Wrap(eng.proc(0))
	original := []byte("precious payload")
	s.Send(1, comm.Message{Parts: []comm.Part{{Origin: 0, Data: original}}})
	if string(original) != "precious payload" {
		t.Fatalf("sender buffer mutated by corruption: %q", original)
	}
	// The engine-side copy must actually be damaged.
	wire := eng.queues[[2]int{0, 1}][0]
	if string(wire.Parts[0].Data) == "precious payload" {
		t.Fatal("corrupt fault did not flip any byte on the wire")
	}
	r := in.Wrap(eng.proc(1))
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("corrupted delivery accepted")
		}
		if !strings.Contains(fmt.Sprint(rec), "corrupted delivery") || !strings.Contains(fmt.Sprint(rec), "0→1") {
			t.Fatalf("diagnostic does not name the fault: %v", rec)
		}
	}()
	r.Recv(0)
}

func TestKillAtOperation(t *testing.T) {
	eng := newFakeEngine(2)
	in := New(Plan{Kills: []KillAt{{Rank: 0, Op: 2}}})
	s := in.Wrap(eng.proc(0))
	s.Send(1, msg(0, "op0"))
	s.Barrier() // op1
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("rank survived its kill op")
		}
		if want := "rank 0 killed at operation 2"; !strings.Contains(fmt.Sprint(rec), want) {
			t.Fatalf("kill diagnostic %v, want substring %q", rec, want)
		}
		evs := in.Events()
		if len(evs) != 1 || evs[0].Kind != Kill || evs[0].Rank != 0 || evs[0].Op != 2 {
			t.Fatalf("kill event missing: %v", evs)
		}
	}()
	s.Send(1, msg(0, "op2 - never sent"))
}

func TestDelayFaultSleepsAndDelivers(t *testing.T) {
	eng := newFakeEngine(2)
	in := New(Plan{Faults: []Fault{{Kind: Delay, Src: 0, Dst: 1, Msg: 0, Delay: 5 * time.Millisecond}}})
	s := in.Wrap(eng.proc(0))
	start := time.Now()
	s.Send(1, msg(0, "slow"))
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delayed send returned after %v, want >= 5ms", d)
	}
	r := in.Wrap(eng.proc(1))
	if m := r.Recv(0); string(m.Parts[0].Data) != "slow" {
		t.Fatalf("delayed message corrupted: %q", m.Parts[0].Data)
	}
}

// tracedProc is a fakeProc that traces what its rank's wrapper hands it,
// stamped as an engine stamps it: on the clock of a run that began at
// start, when the event ends.
type tracedProc struct {
	*fakeProc
	start  time.Time
	events []obs.Event
}

func (p *tracedProc) Trace(e obs.Event) {
	e.Wall = time.Since(p.start).Nanoseconds()
	p.events = append(p.events, e)
}

// TestTracedDelayStartsAtItsSend: a delay fault is traced once the delay
// is over, so the span it claims (obs.Event.Start to its wall stamp)
// begins no earlier than the send it held up.
func TestTracedDelayStartsAtItsSend(t *testing.T) {
	const delay = 5 * time.Millisecond
	in := New(Plan{Faults: []Fault{{Kind: Delay, Src: 0, Dst: 1, Msg: 0, Delay: delay}}})
	p := &tracedProc{fakeProc: newFakeEngine(2).proc(0), start: time.Now()}
	s := in.Wrap(p)
	sent := time.Since(p.start).Nanoseconds()
	s.Send(1, msg(0, "slow"))
	if len(p.events) != 1 || p.events[0].Fault != "delay" || p.events[0].Dur != network.Time(delay) {
		t.Fatalf("traced %+v, want one delay of %v", p.events, delay)
	}
	if start := p.events[0].Start(true); int64(start) < sent {
		t.Errorf("the delay is traced from %v, before its send at %v", time.Duration(start), time.Duration(sent))
	}
}

// TestOutOfRangePeerReachesEngine: a peer outside the machine has no
// link to fault; the message goes to the engine as sent, which names the
// invalid rank.
func TestOutOfRangePeerReachesEngine(t *testing.T) {
	eng := newFakeEngine(2)
	in := New(Plan{Drop: 1})
	in.Wrap(eng.proc(0)).Send(5, msg(0, "stray"))
	if q := eng.queues[[2]int{0, 5}]; len(q) != 1 || string(q[0].Parts[0].Data) != "stray" {
		t.Fatalf("engine saw %v for peer 5, want the message as sent", q)
	}
}

func TestMeteringInterfacesForward(t *testing.T) {
	eng := newFakeEngine(1)
	in := New(Plan{})
	c := in.Wrap(eng.proc(0))
	comm.MarkIter(c, 7)
	if len(eng.iters) != 1 || eng.iters[0] != 7 {
		t.Fatalf("BeginIter not forwarded: %v", eng.iters)
	}
}

func TestPlanActive(t *testing.T) {
	if (Plan{}).Active() {
		t.Fatal("zero plan reported active")
	}
	if !(Plan{Drop: 0.1}).Active() || !(Plan{Kills: []KillAt{{Rank: 0, Op: 0}}}).Active() {
		t.Fatal("non-empty plan reported inactive")
	}
}

// TestCorruptionDiagnosticNamesTheMessage: the receiver names a corrupted
// delivery by the link's message index, the Msg of its event, however
// many dropped messages come before it or duplicates arrived with them.
func TestCorruptionDiagnosticNamesTheMessage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before Kind // the fault on msg 0
	}{
		{"after a drop", Drop},
		{"after a duplicate", Duplicate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := newFakeEngine(2)
			in := New(Plan{Faults: []Fault{
				{Kind: tc.before, Src: 0, Dst: 1, Msg: 0},
				{Kind: Corrupt, Src: 0, Dst: 1, Msg: 1},
			}})
			s, r := in.Wrap(eng.proc(0)), in.Wrap(eng.proc(1))
			s.Send(1, msg(0, "m0"))
			s.Send(1, msg(0, "m1"))
			if tc.before == Duplicate {
				if m := r.Recv(0); string(m.Parts[0].Data) != "m0" {
					t.Fatalf("first recv %q", m.Parts[0].Data)
				}
			}
			defer func() {
				rec := fmt.Sprint(recover())
				for _, want := range []string{"corrupted delivery", "#1 ", "0→1"} {
					if !strings.Contains(rec, want) {
						t.Errorf("diagnostic %q does not contain %q", rec, want)
					}
				}
				var corrupt []Event
				for _, e := range in.Events() {
					if e.Kind == Corrupt {
						corrupt = append(corrupt, e)
					}
				}
				if len(corrupt) != 1 || corrupt[0].Msg != 1 {
					t.Errorf("corrupt events %v, want one on msg 1", corrupt)
				}
			}()
			r.Recv(0)
		})
	}
}
