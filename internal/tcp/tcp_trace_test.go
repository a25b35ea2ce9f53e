package tcp

import (
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
)

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

func TestTracerSeesTraffic(t *testing.T) {
	tr := &seqTracer{}
	_, err := runOpts(2, Options{Tracer: tr}, func(p *Proc) {
		p.BeginIter(2)
		p.BeginPhase("exchange")
		if p.Rank() == 0 {
			p.Send(1, comm.Message{Tag: 3, Parts: []comm.Part{{Origin: 0, Data: []byte("abc")}}})
			p.Recv(1)
		} else {
			p.Recv(0)
			p.Send(0, comm.Message{Tag: 4, Parts: []comm.Part{{Origin: 1, Data: []byte("defg")}}})
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range tr.events {
		counts[e.Kind]++
		switch e.Kind {
		case obs.KindSend, obs.KindRecv, obs.KindBarrier:
			if e.Iter != 2 || e.Phase != "exchange" {
				t.Errorf("%s event missing markers: %+v", e.Kind, e)
			}
		}
		// The reader pump stamps frame arrival; a traced recv must carry
		// it, and it cannot postdate the recv completion.
		if e.Kind == obs.KindRecv {
			if e.Arrival <= 0 {
				t.Errorf("recv without arrival stamp: %+v", e)
			}
			if int64(e.Arrival) > e.Wall {
				t.Errorf("recv arrival %d after completion %d", e.Arrival, e.Wall)
			}
		}
	}
	if counts[obs.KindSend] != 2 || counts[obs.KindRecv] != 2 || counts[obs.KindBarrier] != 2 {
		t.Fatalf("event counts: %v", counts)
	}
}

func TestTracerSelfSendArrival(t *testing.T) {
	tr := &seqTracer{}
	_, err := runOpts(1, Options{Tracer: tr}, func(p *Proc) {
		p.Send(0, comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: []byte("self")}}})
		p.Recv(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	var recvs int
	for _, e := range tr.events {
		if e.Kind == obs.KindRecv {
			recvs++
			if e.Arrival <= 0 {
				t.Errorf("self-recv without arrival stamp: %+v", e)
			}
		}
	}
	if recvs != 1 {
		t.Fatalf("traced %d recvs, want 1", recvs)
	}
}
