package machine

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
)

// Program returns the program alg executes for spec on this machine, or nil
// when there is none to read: alg's body is code, or the spec does not fit
// the machine (which every rank of a run must get to report).
func (m *Machine) Program(alg core.Algorithm, spec core.Spec) *comm.Program {
	if prog := core.ProgramOf(core.Bind(alg, spec)); prog != nil && prog.P() == m.Place.Size() {
		return prog
	}
	return nil
}

// RunSim runs one collective instance on a fresh network of the machine:
// alg bound to spec, every rank entering with the length-only bundle of
// its collective (core.InitialLenFor) at msgLen(rank) bytes — the
// simulator prices sizes, so no payload is allocated. It returns the
// result and the network the run left its link statistics in.
//
// This is the one place a simulation is set up, and the one place that
// picks the simulator's driver: an algorithm with a Program here is
// replayed (sim.Replay), anything else runs as goroutines (sim.Run). Both
// give the same result for the same algorithm.
func (m *Machine) RunSim(alg core.Algorithm, spec core.Spec, msgLen func(rank int) int, opts sim.Options) (*sim.Result, *network.Network, error) {
	nw, err := m.NewNetwork()
	if err != nil {
		return nil, nil, err
	}
	coll := core.CollectiveOf(alg)
	alg = core.Bind(alg, spec)
	var res *sim.Result
	if prog := m.Program(alg, spec); prog != nil {
		res, err = sim.Replay(nw, prog, func(rank int) (bytes, parts int) {
			return core.InitialLen(coll, spec, rank, msgLen(rank))
		}, opts)
	} else {
		res, err = sim.Run(nw, func(pr *sim.Proc) {
			alg.Run(pr, spec, core.InitialLenFor(coll, spec, pr.Rank(), msgLen(pr.Rank())))
		}, opts)
	}
	return res, nw, err
}

// Uniform is the msgLen of an instance whose ranks all enter with n bytes.
func Uniform(n int) func(rank int) int { return func(int) int { return n } }
