package machine

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
)

// Program returns the program alg executes for spec on this machine
// (core.Compile): an error when alg has none, when the spec does not bind
// or when the program does not fit the machine — the spec does not cover
// it, or alg is bound to another spec.
func (m *Machine) Program(alg core.Algorithm, spec core.Spec) (*comm.Program, error) {
	prog, err := core.Compile(alg, spec)
	if err != nil {
		return nil, err
	}
	if p := m.Place.Size(); prog.P() != p {
		if err := spec.Validate(p); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("machine: %s has a program for %d ranks, %s has %d", alg.Name(), prog.P(), m.Name, p)
	}
	return prog, nil
}

// RunSim replays one collective instance on a network of the machine: the
// program alg executes for spec (Program), every rank entering with the
// bundle of its collective (core.InitialLen) at msgLen(rank) bytes — the
// simulator prices lengths, so no payload exists. It returns the result
// and the network the run left its link statistics in, which the caller
// releases (network.Release) once it has read them. It and Elapsed are
// the only places a simulation is set up: bench.Measure and the facade's
// EngineSim go through RunSim.
func (m *Machine) RunSim(alg core.Algorithm, spec core.Spec, msgLen func(rank int) int, opts sim.Options) (*sim.Result, *network.Network, error) {
	prog, nw, err := m.instance(alg, spec)
	if err != nil {
		return nil, nil, err
	}
	coll := core.CollectiveOf(alg)
	res, err := sim.Replay(nw, prog, func(rank int) (int, int) { return core.InitialLen(coll, spec, rank, msgLen(rank)) }, opts)
	if err != nil {
		nw.Release()
		return nil, nil, err
	}
	return res, nw, nil
}

// Elapsed is RunSim for a caller that reads the makespan only, such as a
// figure cell or a planner probe. It builds no result and gives back what
// the replay used: the network, and the program when it compiled one for
// this call. The program of a bound algorithm (core.ProgramOf) belongs to
// the algorithm and is never released.
func (m *Machine) Elapsed(alg core.Algorithm, spec core.Spec, msgLen func(rank int) int) (network.Time, error) {
	compiled := core.ProgramOf(alg) == nil
	prog, nw, err := m.instance(alg, spec)
	if err != nil {
		return 0, err
	}
	defer nw.Release()
	if compiled {
		defer prog.Release()
	}
	coll := core.CollectiveOf(alg)
	return sim.Makespan(nw, prog, func(rank int) (int, int) { return core.InitialLen(coll, spec, rank, msgLen(rank)) })
}

// instance returns the program of alg on spec (Program) and a network of
// the machine to replay it on.
func (m *Machine) instance(alg core.Algorithm, spec core.Spec) (*comm.Program, *network.Network, error) {
	prog, err := m.Program(alg, spec)
	if err != nil {
		return nil, nil, err
	}
	nw, err := m.NewNetwork()
	if err != nil {
		return nil, nil, err
	}
	return prog, nw, nil
}

// Uniform is the msgLen of an instance whose ranks all enter with n bytes.
func Uniform(n int) func(rank int) int { return func(int) int { return n } }
