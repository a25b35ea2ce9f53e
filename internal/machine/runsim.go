package machine

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
)

// Program returns the program alg executes for spec on this machine
// (core.Compile): an error when alg has none, when the spec does not bind
// or when it does not cover the machine.
func (m *Machine) Program(alg core.Algorithm, spec core.Spec) (*comm.Program, error) {
	prog, err := core.Compile(alg, spec)
	if err != nil {
		return nil, err
	}
	if p := m.Place.Size(); prog.P() != p {
		return nil, spec.Validate(p)
	}
	return prog, nil
}

// RunSim replays one collective instance on a network of the machine: the
// program alg executes for spec (Program), every rank entering with the
// bundle of its collective (core.InitialLen) at msgLen(rank) bytes — the
// simulator prices lengths, so no payload exists. It returns the result
// and the network the run left its link statistics in, which the caller
// releases (network.Release) once it has read them. It is the one place
// a simulation is set up: bench.Measure/MeasureVar, the planner's probes
// and the facade's EngineSim all go through it.
func (m *Machine) RunSim(alg core.Algorithm, spec core.Spec, msgLen func(rank int) int, opts sim.Options) (*sim.Result, *network.Network, error) {
	prog, err := m.Program(alg, spec)
	if err != nil {
		return nil, nil, err
	}
	nw, err := m.NewNetwork()
	if err != nil {
		return nil, nil, err
	}
	coll := core.CollectiveOf(alg)
	res, err := sim.Replay(nw, prog, func(rank int) (partLen, parts int) {
		return core.InitialLen(coll, spec, rank, msgLen(rank))
	}, opts)
	if err != nil {
		nw.Release()
		return nil, nil, err
	}
	return res, nw, nil
}

// Uniform is the msgLen of an instance whose ranks all enter with n bytes.
func Uniform(n int) func(rank int) int { return func(int) int { return n } }
