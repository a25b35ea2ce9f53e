package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/tcp"
)

// FuzzControlDecode feeds arbitrary bytes to the control protocol's
// message decoder and every done message it yields to the coordinator's
// merge of the flat per-rank counters, for a worker owning ranks [3,7)
// of 10. Neither may panic; a merge that succeeds must have rebuilt
// exactly the stats the list carries, every rank of the range once, and
// touched nothing outside it. A count that is not 7 per rank, a rank
// outside the range or a rank twice must be an error.
func FuzzControlDecode(f *testing.F) {
	const p, lo, hi = 10, 3, 7
	for _, m := range []msg{
		{Type: "done", Done: &doneMsg{ElapsedNs: 5, Procs: flattenProcs([]tcp.ProcStats{
			{Rank: 3, Sends: 1, Recvs: 2, SendBytes: 3, RecvBytes: 4},
			{Rank: 5, Sends: 9}, {Rank: 4, BarrierSends: 2, BarrierRecvs: 2}, {Rank: 6},
		})}},
		{Type: "done", Done: &doneMsg{Procs: []int64{3, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0}}},
		{Type: "done", Done: &doneMsg{Procs: []int64{9, 1, 1, 1, 1, 1, 1}}},
		{Type: "done", Done: &doneMsg{Err: "tcp: rank 4: recv from 8: blocked"}},
		{Type: "run", Run: &RunSpec{Epoch: 2, Rows: 2, Cols: 5, Sources: []int{0, 7}, Algorithm: "Br_Lin", MsgBytes: 1024}},
		{Type: "connect", Addrs: map[int]string{3: "127.0.0.1:4000"}},
	} {
		line, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(line, '\n'))
	}
	f.Add([]byte(`{"type":"done","done":{"procs":[3,1,2,3,4,5]}}`))
	f.Add([]byte(`{"type":"done","done":{"procs":[-1,0,0,0,0,0,0]}}` + "\n" + `{"type":"done"`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cc := &conn{dec: json.NewDecoder(bytes.NewReader(data))}
		for {
			m, err := cc.recv(0)
			if err != nil {
				return
			}
			if m.Done == nil {
				continue
			}
			procs := make([]tcp.ProcStats, p)
			flat := m.Done.Procs
			if err := mergeProcs(procs, flat, lo, hi); err != nil {
				if len(flat) == 7*(hi-lo) && validRanks(flat, lo, hi) {
					t.Fatalf("merge of %v rejected: %v", flat, err)
				}
				continue
			}
			if len(flat) != 7*(hi-lo) || !validRanks(flat, lo, hi) {
				t.Fatalf("merge of %v accepted", flat)
			}
			want := make([]tcp.ProcStats, p)
			for i := 0; i < len(flat); i += 7 {
				r := flat[i]
				want[r] = tcp.ProcStats{Rank: int(r), Sends: int(flat[i+1]), Recvs: int(flat[i+2]),
					SendBytes: flat[i+3], RecvBytes: flat[i+4], BarrierSends: int(flat[i+5]), BarrierRecvs: int(flat[i+6])}
			}
			for r := range procs {
				if procs[r] != want[r] {
					t.Fatalf("merge of %v: slot %d = %+v, want %+v", flat, r, procs[r], want[r])
				}
			}
		}
	})
}

// validRanks reports whether flat's rank column names every rank of
// [lo,hi) exactly once — the merge's contract, checked independently.
func validRanks(flat []int64, lo, hi int) bool {
	seen := map[int64]bool{}
	for i := 0; i+7 <= len(flat); i += 7 {
		r := flat[i]
		if r < int64(lo) || r >= int64(hi) || seen[r] {
			return false
		}
		seen[r] = true
	}
	return len(seen) == hi-lo
}
