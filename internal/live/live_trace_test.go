package live

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

func (s *seqTracer) byRank(rank int) []obs.Event {
	var out []obs.Event
	for _, e := range s.events {
		if e.Rank == rank {
			out = append(out, e)
		}
	}
	return out
}

func TestTracerSeesPingPong(t *testing.T) {
	tr := &seqTracer{}
	_, err := runOpts(2, Options{Tracer: tr}, func(p *Proc) {
		p.BeginIter(0)
		p.BeginPhase("ping")
		if p.Rank() == 0 {
			p.Send(1, comm.Message{Tag: 7, Parts: []comm.Part{{Origin: 0, Data: []byte("hello")}}})
			p.Recv(1)
		} else {
			p.Recv(0)
			p.Send(0, comm.Message{Tag: 8, Parts: []comm.Part{{Origin: 1, Data: []byte("world")}}})
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		var kinds []string
		for _, e := range tr.byRank(rank) {
			if e.Kind == obs.KindWait {
				continue // timing-dependent
			}
			kinds = append(kinds, e.Kind)
			if e.Iter != 0 {
				t.Errorf("rank %d %s: iter = %d, want 0", rank, e.Kind, e.Iter)
			}
			if e.Phase != "ping" {
				t.Errorf("rank %d %s: phase = %q, want ping", rank, e.Kind, e.Phase)
			}
			if e.Wall < 0 {
				t.Errorf("rank %d %s: negative wall %d", rank, e.Kind, e.Wall)
			}
		}
		var want []string
		if rank == 0 {
			want = []string{obs.KindSend, obs.KindRecv, obs.KindBarrier}
		} else {
			want = []string{obs.KindRecv, obs.KindSend, obs.KindBarrier}
		}
		if len(kinds) != len(want) {
			t.Fatalf("rank %d traced %v, want %v", rank, kinds, want)
		}
		for i := range want {
			if kinds[i] != want[i] {
				t.Fatalf("rank %d traced %v, want %v", rank, kinds, want)
			}
		}
	}
	// Event payload metadata survives.
	for _, e := range tr.events {
		if e.Kind == obs.KindSend && e.Rank == 0 {
			if e.Bytes != 5 || e.Tag != 7 || e.Peer != 1 {
				t.Errorf("send event metadata: %+v", e)
			}
		}
	}
}

func TestTracerWaitOnBlockedRecv(t *testing.T) {
	tr := &seqTracer{}
	release := make(chan struct{})
	_, err := runOpts(2, Options{Tracer: tr}, func(p *Proc) {
		if p.Rank() == 0 {
			<-release
			p.Send(1, comm.Message{Parts: []comm.Part{{Origin: 0, Data: []byte("x")}}})
		} else {
			close(release) // guarantee rank 1 blocks before the send
			p.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawWait bool
	for _, e := range tr.byRank(1) {
		if e.Kind == obs.KindWait {
			sawWait = true
			if e.Peer != 0 {
				t.Errorf("wait peer = %d, want 0", e.Peer)
			}
		}
	}
	if !sawWait {
		t.Fatal("blocked receive traced no wait event")
	}
}
