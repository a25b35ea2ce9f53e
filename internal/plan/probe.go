package plan

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
)

// ProbeResult is one empirical measurement: a candidate's full
// deterministic simulation of the instance.
type ProbeResult struct {
	// Algorithm is the candidate's registry name.
	Algorithm string
	// ElapsedMs is the simulated makespan in milliseconds.
	ElapsedMs float64
}

// probeCandidates measures the named candidates on the shared worker pool
// (par.ForEach) on the simulator, which prices lengths and builds no
// payload. The result order follows names (the analytic ranking), so the
// caller's min-with-ties-first selection is deterministic regardless of
// scheduling. A context
// cancellation abandons unstarted probes and returns the context error;
// running probes finish (the simulator is not interruptible mid-run) but
// their results are discarded.
func probeCandidates(ctx context.Context, m *machine.Machine, spec core.Spec, msgLen int, names []string) ([]ProbeResult, error) {
	probes := metrics.GetCounter(CounterProbes)
	out := make([]ProbeResult, len(names))
	err := par.ForEach(len(names), func(i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("plan: probing cancelled: %w", err)
		}
		alg, err := core.ByName(names[i])
		if err != nil {
			return err
		}
		probes.Inc()
		res, _, err := m.RunSim(alg, spec, machine.Uniform(msgLen), sim.Options{})
		if err != nil {
			return fmt.Errorf("plan: probe %s: %w", names[i], err)
		}
		out[i] = ProbeResult{Algorithm: names[i], ElapsedMs: res.Elapsed.Milliseconds()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
