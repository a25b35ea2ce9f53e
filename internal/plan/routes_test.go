package plan

import (
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/live"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// TestRoutesCoverTracedLiveLinks is the route-extraction soundness gate:
// for every registry algorithm, the link set Routes extracts from a
// simulated replay must be a superset of the directed links a real
// (live-engine) run of the same instance actually sends over, observed
// through its obs event stream. Checked at p=16 and p=32 on two source
// distributions so both the dense and the straggler-heavy schedules are
// exercised.
func TestRoutesCoverTracedLiveLinks(t *testing.T) {
	meshes := [][2]int{{4, 4}, {4, 8}}
	for _, mesh := range meshes {
		m := machine.Paragon(mesh[0], mesh[1])
		p := mesh[0] * mesh[1]
		for _, d := range []dist.Distribution{dist.Equal(), dist.Cross()} {
			spec := testSpec(t, m, d, p/2)
			for _, alg := range core.Registry() {
				routes, err := Routes(m, alg, spec, 32)
				if err != nil {
					t.Fatalf("%s p=%d %s: %v", alg.Name(), p, d.Name(), err)
				}
				planned := make(map[[2]int]bool, len(routes))
				for _, l := range routes {
					planned[l] = true
				}
				rec := trace.NewRecorder(0)
				payload := make([]byte, 32)
				_, err = live.RunOpts(p, live.Options{Tracer: rec}, func(pr *live.Proc) {
					mine := core.InitialMessage(spec, pr.Rank(), payload)
					alg.Run(pr, spec, mine)
				})
				if err != nil {
					t.Fatalf("%s p=%d %s (live): %v", alg.Name(), p, d.Name(), err)
				}
				for _, e := range rec.Events {
					if e.Kind != obs.KindSend || e.Peer < 0 || e.Peer == e.Rank {
						continue
					}
					if !planned[[2]int{e.Rank, e.Peer}] {
						t.Errorf("%s p=%d %s: run sent %d→%d, not in the %d extracted routes",
							alg.Name(), p, d.Name(), e.Rank, e.Peer, len(routes))
					}
				}
			}
		}
	}
}

// TestRoutesReadAndTracedAgree holds the two derivations of a link set
// together: for every registry entry that is a program, the pairs read off
// its send operations are exactly the pairs a traced simulator run of the
// instance sends over — the derivation that remains for entries whose body
// is code.
func TestRoutesReadAndTracedAgree(t *testing.T) {
	var read []string
	for _, mesh := range [][2]int{{4, 4}, {4, 8}} {
		m := machine.Paragon(mesh[0], mesh[1])
		for _, coll := range core.Collectives() {
			specs := []core.Spec{{Rows: m.Rows, Cols: m.Cols, Sources: core.AllRanksSources(m.P())}}
			if caps := coll.Caps(); caps.SingleSource {
				specs[0].Sources = []int{m.P() / 3}
			} else if caps.TakesSources {
				specs = []core.Spec{testSpec(t, m, dist.Equal(), m.P()/2), testSpec(t, m, dist.Cross(), m.P()/4)}
			}
			for _, alg := range core.RegistryFor(coll) {
				for _, spec := range specs {
					prog := m.Program(alg, spec)
					if prog == nil {
						continue
					}
					if !slices.Contains(read, alg.Name()) {
						read = append(read, alg.Name())
					}
					fromProgram, traced := linkSet{}, linkSet{}
					programLinks(prog, fromProgram)
					if err := tracedLinks(m, alg, spec, 32, traced); err != nil {
						t.Fatalf("%s on %s: %v", alg.Name(), m.Name, err)
					}
					if !maps.Equal(fromProgram, traced) {
						t.Errorf("%s on %s, sources %v: %d links read off the program, %d traced", alg.Name(), m.Name, spec.Sources, len(fromProgram), len(traced))
					}
					routes, err := Routes(m, alg, spec, 32)
					if err != nil || len(routes) != len(traced) || !slices.IsSortedFunc(routes, compareLinks) {
						t.Errorf("%s on %s: Routes gives %d links (%v), want the %d sorted", alg.Name(), m.Name, len(routes), err, len(traced))
					}
				}
			}
		}
	}
	if len(read) < 17 {
		t.Errorf("only %d registry entries had their routes read off a program: %v", len(read), read)
	}
}

// TestRoutesDriveSparseTCPMachine closes the loop at the transport
// layer: a TCP machine built from exactly the extracted routes runs the
// algorithm with zero lazy dials — ConnsOpened does not grow during the
// run, so the plan covered every connection the broadcast needed. Any
// link Routes missed would show up as an on-demand dial here.
func TestRoutesDriveSparseTCPMachine(t *testing.T) {
	m := machine.Paragon(4, 4)
	const p = 16
	spec := testSpec(t, m, dist.Cross(), 8)
	for _, alg := range core.Registry() {
		routes, err := Routes(m, alg, spec, 32)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		tm, err := tcp.NewMachine(p, tcp.Options{Links: routes})
		if err != nil {
			t.Fatalf("%s: machine: %v", alg.Name(), err)
		}
		opened := tm.ConnsOpened()
		payload := make([]byte, 32)
		_, err = tm.Run(tcp.Options{RecvTimeout: 30 * time.Second}, func(pr *tcp.Proc) {
			mine := core.InitialMessage(spec, pr.Rank(), payload)
			alg.Run(pr, spec, mine)
		})
		if err != nil {
			tm.Close()
			t.Fatalf("%s (tcp sparse): %v", alg.Name(), err)
		}
		if after := tm.ConnsOpened(); after != opened {
			t.Errorf("%s: %d lazy dials during the run — extracted routes incomplete",
				alg.Name(), after-opened)
		}
		full := p * (p - 1) / 2
		if tm.PlannedPairs() >= full {
			t.Errorf("%s: %d planned pairs, not sparser than the full mesh (%d)",
				alg.Name(), tm.PlannedPairs(), full)
		}
		tm.Close()
	}
}
