package live

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/engine"
)

// runOnce opens a machine of p processors, runs fn on it once and closes
// it, applying no deadlines.
func runOnce(p int, fn func(*Proc)) (*engine.Result, error) { return runOpts(p, Options{}, fn) }

// runOpts is runOnce with options.
func runOpts(p int, opts Options, fn func(*Proc)) (*engine.Result, error) {
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
