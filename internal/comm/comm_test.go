package comm_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/live"
)

// origins returns the sorted ranks whose original messages m carries.
func origins(m comm.Message) []int {
	out := make([]int, len(m.Parts))
	for i, p := range m.Parts {
		out[i] = p.Origin
	}
	slices.Sort(out)
	return out
}

// liveRun opens a live machine of p processors, runs fn on it once and
// closes it.
func liveRun(p int, opts live.Options, fn func(*live.Proc)) (engine.Result, error) {
	m, err := live.NewMachine(p)
	if err != nil {
		return engine.Result{}, err
	}
	defer m.Close()
	return m.Run(opts, fn)
}

func TestMessageLenAndOrigins(t *testing.T) {
	m := comm.Message{Parts: []comm.Part{
		{Origin: 5, Data: make([]byte, 10)},
		{Origin: 2, Data: make([]byte, 7)},
	}}
	if m.Len() != 17 {
		t.Errorf("Len = %d", m.Len())
	}
	if got := origins(m); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Errorf("Origins = %v", got)
	}
	var empty comm.Message
	if empty.Len() != 0 || len(origins(empty)) != 0 {
		t.Error("empty message not empty")
	}
}

func TestMessageAppend(t *testing.T) {
	a := comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: []byte{1}}}}
	b := comm.Message{Tag: 2, Parts: []comm.Part{{Origin: 3, Data: []byte{2, 3}}}}
	c := a.Append(b)
	if c.Tag != 1 {
		t.Errorf("Append changed tag to %d", c.Tag)
	}
	if got := origins(c); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("Append origins = %v", got)
	}
	if c.Len() != 3 {
		t.Errorf("Append len = %d", c.Len())
	}
}

func TestMarkersNoOpOnPlainComm(t *testing.T) {
	// A communicator that implements neither marker: the helpers must be
	// safe no-ops on it.
	var c struct{ comm.Comm }
	comm.MarkIter(c, 3)
	comm.MarkPhase(c, "gather")
}

// subgroup is a script in which the listed ranks narrow to the subgroup
// (Builder.Sub), write body addressing each other by local rank, and
// widen again; every other rank does nothing.
func subgroup(members []int, body func(b *comm.Builder, local int)) comm.Script {
	return comm.Script{Rank: func(b *comm.Builder, rank int) {
		for local, m := range members {
			if m == rank {
				b.Sub(members, local)
				body(b, local)
				b.Top()
			}
		}
	}}
}

func TestSubCommTranslation(t *testing.T) {
	members := []int{1, 3, 4}
	// Ring of subgroup members through local ranks.
	ring := subgroup(members, func(b *comm.Builder, local int) {
		b.Send((local+1)%3, 0)
		b.Recv((local+2)%3, 0)
	})
	results := make([]string, 6)
	_, err := liveRun(6, live.Options{}, func(p *live.Proc) {
		m := ring.Run(p, comm.Message{Parts: []comm.Part{{Origin: p.Rank(), Data: []byte{byte(p.Rank())}}}})
		results[p.Rank()] = string(m.Parts[0].Data)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Member 3 (local 1) receives from member 1 (local 0), etc.; the
	// ranks outside the subgroup keep what they entered with.
	if results[3] != string([]byte{1}) || results[4] != string([]byte{3}) || results[1] != string([]byte{4}) {
		t.Fatalf("ring payloads: %q %q %q", results[1], results[3], results[4])
	}
	if results[0] != string([]byte{0}) || results[2] != string([]byte{2}) || results[5] != string([]byte{5}) {
		t.Fatalf("non-members took part: %q %q %q", results[0], results[2], results[5])
	}
}

func TestSubCommBarrier(t *testing.T) {
	barriers := subgroup([]int{0, 2, 3, 5, 6}, func(b *comm.Builder, _ int) {
		for i := 0; i < 5; i++ {
			b.Barrier()
		}
	})
	_, err := liveRun(8, live.Options{}, func(p *live.Proc) { barriers.Run(p, comm.Message{}) })
	if err != nil {
		t.Fatal(err)
	}
}
