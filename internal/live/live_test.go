package live

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
)

// runOnce opens a machine of p processors, runs fn on it once and closes
// it, applying no deadlines.
func runOnce(p int, fn func(*Proc)) (*Result, error) { return runOpts(p, Options{}, fn) }

// runOpts is runOnce with options.
func runOpts(p int, opts Options, fn func(*Proc)) (*Result, error) {
	m, err := NewMachine(p)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Run(opts, fn)
}

// TestSendMultiPartOneBacking covers the coalesced copy path: all parts
// of a message share one backing allocation, but each part is sealed with
// a full slice expression so growing one part cannot bleed into the next.
func TestSendMultiPartOneBacking(t *testing.T) {
	_, err := runOnce(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, comm.Message{Parts: []comm.Part{
				{Origin: 0, Data: []byte("alpha")},
				{Origin: 1, Data: []byte("beta")},
			}})
			return
		}
		m := p.Recv(0)
		if len(m.Parts) != 2 {
			t.Fatalf("got %d parts, want 2", len(m.Parts))
		}
		if string(m.Parts[0].Data) != "alpha" || string(m.Parts[1].Data) != "beta" {
			t.Errorf("payloads corrupted: %q %q", m.Parts[0].Data, m.Parts[1].Data)
		}
		for i, part := range m.Parts {
			if cap(part.Data) != len(part.Data) {
				t.Errorf("part %d not sealed: len %d cap %d", i, len(part.Data), cap(part.Data))
			}
		}
		// Growing part 0 must reallocate, never overwrite part 1's bytes
		// in the shared backing array.
		grown := append(m.Parts[0].Data, []byte("XXXXXXXX")...)
		_ = grown
		if string(m.Parts[1].Data) != "beta" {
			t.Errorf("append through part 0 clobbered part 1: %q", m.Parts[1].Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerPairUnderConcurrency(t *testing.T) {
	const n = 200
	_, err := runOnce(3, func(p *Proc) {
		switch p.Rank() {
		case 0, 1:
			for i := 0; i < n; i++ {
				p.Send(2, comm.Message{Tag: i, Parts: []comm.Part{{Origin: p.Rank(), Data: []byte{byte(i)}}}})
			}
		case 2:
			// Interleave receives from both senders; each stream must
			// stay in order.
			for i := 0; i < n; i++ {
				for src := 0; src < 2; src++ {
					m := p.Recv(src)
					if m.Tag != i {
						t.Errorf("stream %d out of order: got %d want %d", src, m.Tag, i)
						return
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllDelivers(t *testing.T) {
	const p = 16
	_, err := runOnce(p, func(pr *Proc) {
		for d := 0; d < p; d++ {
			if d == pr.Rank() {
				continue
			}
			pr.Send(d, comm.Message{Parts: []comm.Part{{Origin: pr.Rank(), Data: []byte(fmt.Sprintf("from-%d", pr.Rank()))}}})
		}
		for s := 0; s < p; s++ {
			if s == pr.Rank() {
				continue
			}
			m := pr.Recv(s)
			want := fmt.Sprintf("from-%d", s)
			if string(m.Parts[0].Data) != want {
				t.Errorf("rank %d from %d: %q", pr.Rank(), s, m.Parts[0].Data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicAbortsMachine(t *testing.T) {
	_, err := runOnce(4, func(p *Proc) {
		if p.Rank() == 3 {
			panic("injected fault")
		}
		// Everyone else blocks on the dead processor; the abort must
		// unwind them instead of hanging the test.
		p.Recv(3)
	})
	if err == nil {
		t.Fatal("fault not reported")
	}
	if !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("root cause lost: %v", err)
	}
}

func TestPanicInBarrierAborts(t *testing.T) {
	_, err := runOnce(4, func(p *Proc) {
		if p.Rank() == 0 {
			panic("dead before barrier")
		}
		p.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "dead before barrier") {
		t.Fatalf("err = %v", err)
	}
}
