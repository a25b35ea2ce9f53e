// Package bench defines one experiment per table and figure of the
// paper's evaluation (Section 5) and regenerates the same rows/series on
// the simulated machines. cmd/stpbench prints them; bench_test.go at the
// repository root exposes each as a Go benchmark; EXPERIMENTS.md records
// paper-vs-measured.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Measure runs one algorithm on one machine for one collective instance
// (the algorithm's CollectiveOf tag decides the initial bundles) and
// returns the simulated result. Ranks enter with parts of msgLen bytes,
// which the simulator prices by their lengths alone: no payload exists.
func Measure(m *machine.Machine, alg core.Algorithm, spec core.Spec, msgLen int) (*sim.Result, error) {
	res, _, err := m.RunSim(alg, spec, machine.Uniform(msgLen), sim.Options{})
	return res, err
}

// SpecFor builds the broadcast spec for a machine and distribution.
func SpecFor(m *machine.Machine, d interface {
	Sources(r, c, s int) ([]int, error)
}, s int) (core.Spec, error) {
	sources, err := d.Sources(m.Rows, m.Cols, s)
	if err != nil {
		return core.Spec{}, err
	}
	return core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: sources, Indexing: topology.SnakeRowMajor}, nil
}

// MustMillis runs Measure and returns the makespan in milliseconds,
// wrapping any error with experiment context.
func MustMillis(m *machine.Machine, alg core.Algorithm, spec core.Spec, msgLen int) (float64, error) {
	res, err := Measure(m, alg, spec, msgLen)
	if err != nil {
		return 0, fmt.Errorf("bench: %s on %s (s=%d L=%d): %w", alg.Name(), m.Name, spec.S(), msgLen, err)
	}
	return res.Elapsed.Milliseconds(), nil
}
