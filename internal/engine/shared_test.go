package engine_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
)

// recorder is a rank that notes every message it sends, on both of the
// engine's send paths.
type recorder struct {
	*engine.Proc
	sent *[]sentMsg
}

// sentMsg is a message as it was sent: its part array, and a copy of
// every part's origin and bytes taken before the send.
type sentMsg struct{ parts, was []comm.Part }

func (r recorder) note(m comm.Message) {
	was := make([]comm.Part, len(m.Parts))
	for i, part := range m.Parts {
		was[i] = comm.Part{Origin: part.Origin, Data: bytes.Clone(part.Data)}
	}
	*r.sent = append(*r.sent, sentMsg{m.Parts, was})
}

func (r recorder) Send(dst int, m comm.Message) {
	r.note(m)
	r.Proc.Send(dst, m)
}

func (r recorder) SendShared(dst int, m comm.Message) {
	r.note(m)
	r.Proc.SendShared(dst, m)
}

// changed names the first part, of any message any rank sent, whose
// origin, length or bytes are no longer what was sent.
func changed(sent [][]sentMsg) error {
	for rank, msgs := range sent {
		for k, s := range msgs {
			for i, was := range s.was {
				if now := s.parts[i]; now.Origin != was.Origin || !bytes.Equal(now.Data, was.Data) {
					return fmt.Errorf("rank %d's message %d, part %d: sent origin %d, %d bytes; now origin %d, %d bytes %x",
						rank, k, i, was.Origin, len(was.Data), now.Origin, len(now.Data), now.Data)
				}
			}
		}
	}
	return nil
}

// sharedSpec is the instance every entry of coll runs on a rows×cols
// machine: some sources for the broadcasts, several for the reductions,
// a root for Scatter, every rank for AllGather and AllToAll.
func sharedSpec(coll core.Collective, rows, cols int) core.Spec {
	p := rows * cols
	sources := core.AllRanksSources(p)
	switch coll {
	case core.Broadcast:
		sources = []int{1, 4, 6, p - 1}
	case core.Reduce, core.AllReduce:
		sources = []int{1, p / 2, p - 1}
	case core.Scatter:
		sources = []int{p - 1}
	}
	return core.Spec{Rows: rows, Cols: cols, Sources: sources, Indexing: topology.SnakeRowMajor}
}

// TestSentPartsStayUnchanged: a compiled program's in-memory messages
// travel uncopied (comm.SharedSender), so nothing may change a part once
// it is sent — not the executor, not the ranks it reaches, not
// core.Collective.Check run on a bundle inside the rank body, as a
// cluster worker does while its peers still hold the bundle's array.
// For every registry entry, on a live machine and on the conformance
// table's split mesh of worker machines, back-to-back runs with payloads of their own lengths
// record every message each rank sends. After each run every part sent
// so far still has the origin, length and bytes it was sent with, and
// the bundles kept from the first run still pass Check.
func TestSentPartsStayUnchanged(t *testing.T) {
	const rows, cols = 3, 4
	p := rows * cols
	opts := engine.Options{RecvTimeout: 10 * time.Second}
	for _, m := range []struct {
		name string
		open func(p int) (machine, error)
	}{
		{"memory", openMemory},
		{"worker", openWorkers},
	} {
		t.Run(m.name, func(t *testing.T) {
			mc, err := m.open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer mc.Close()
			for _, coll := range core.Collectives() {
				spec := sharedSpec(coll, rows, cols)
				for _, alg := range core.RegistryFor(coll) {
					bound := core.Bind(alg, spec)
					sent := make([][]sentMsg, p)
					var kept []comm.Message
					var keptSize int
					for k, size := range []int{24, 8, 40} {
						sizes := func(int) int { return size }
						bundles := make([]comm.Message, p)
						_, err := mc.Run(opts, func(pr *engine.Proc) {
							rank := pr.Rank()
							mine := core.InitialFor(coll, spec, rank, func(r int) []byte { return coll.Payload(p, r, size) })
							out := bound.Run(recorder{pr, &sent[rank]}, spec, mine)
							if err := coll.Check(spec, sizes, rank, out); err != nil {
								t.Errorf("%s run %d: %v", alg.Name(), k, err)
							}
							bundles[rank] = out
						})
						if err != nil {
							t.Fatalf("%s run %d: %v", alg.Name(), k, err)
						}
						if err := changed(sent); err != nil {
							t.Fatalf("%s after run %d: %v", alg.Name(), k, err)
						}
						if kept == nil {
							kept, keptSize = bundles, size
							continue
						}
						for rank, out := range kept {
							if err := coll.Check(spec, func(int) int { return keptSize }, rank, out); err != nil {
								t.Fatalf("%s: the first run's bundle after run %d: %v", alg.Name(), k, err)
							}
						}
					}
				}
			}
		})
	}
}
