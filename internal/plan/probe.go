package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ProbeResult is one empirical measurement: a candidate's full
// deterministic simulation of the instance.
type ProbeResult struct {
	// Algorithm is the candidate's registry name.
	Algorithm string
	// ElapsedMs is the simulated makespan in milliseconds. +Inf marks a
	// candidate disqualified by the MaxProbeOps budget.
	ElapsedMs float64
}

// probeOne runs one probe simulation on the length-only payload path.
func probeOne(m *machine.Machine, alg core.Algorithm, spec core.Spec, msgLen, maxOps int) (float64, error) {
	res, _, err := m.RunSim(alg, spec, machine.Uniform(msgLen), sim.Options{MaxOps: maxOps})
	if err != nil {
		if errors.Is(err, sim.ErrMaxOps) {
			// Over budget: deterministically disqualified, not an error.
			return math.Inf(1), nil
		}
		return 0, fmt.Errorf("plan: probe %s: %w", alg.Name(), err)
	}
	return res.Elapsed.Milliseconds(), nil
}

// probeCandidates measures the named candidates concurrently on a worker
// pool. The result order follows names (the analytic ranking), so the
// caller's min-with-ties-first selection is deterministic regardless of
// scheduling. A context cancellation abandons unstarted probes and
// returns the context error; running probes finish (the simulator is not
// interruptible mid-run) but their results are discarded.
func probeCandidates(ctx context.Context, m *machine.Machine, spec core.Spec, msgLen int, names []string, workers, maxOps int) ([]ProbeResult, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(names) {
		workers = len(names)
	}
	probes := metrics.GetCounter(CounterProbes)
	out := make([]ProbeResult, len(names))
	errs := make([]error, len(names))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				name := names[i]
				alg, err := core.ByName(name)
				if err != nil {
					errs[i] = err
					continue
				}
				probes.Inc()
				ms, err := probeOne(m, alg, spec, msgLen, maxOps)
				if err != nil {
					errs[i] = err
					continue
				}
				out[i] = ProbeResult{Algorithm: name, ElapsedMs: ms}
			}
		}()
	}
	var ctxErr error
feed:
	for i := range names {
		select {
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break feed
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	if ctxErr != nil {
		return nil, fmt.Errorf("plan: probing cancelled: %w", ctxErr)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
