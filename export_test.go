package stpbcast

import (
	"fmt"

	"repro/internal/comm"
)

// SessionLazyDials reports how many pairs a single-process TCP session
// has dialed before a run because its Links plan lacked them.
func SessionLazyDials(s *Session) int { return s.tcpM.LazyDials() }

// SessionConnsOpened reports how many connections a single-process TCP
// session has dialed, at Open and before its runs.
func SessionConnsOpened(s *Session) int { return s.tcpM.ConnsOpened() }

// CheckResult verifies every rank's bundle in res against the
// postcondition of cfg's collective (core's Collective.Check) for a run
// on m with the default payload. It is the external tests' one adapter
// from Result.Bundles.
func CheckResult(m *Machine, cfg Config, res *Result) error {
	spec, err := cfg.spec(m)
	if err != nil {
		return err
	}
	if len(res.Bundles) != m.P() {
		return fmt.Errorf("bundles for %d ranks, want %d", len(res.Bundles), m.P())
	}
	sizes := func(rank int) int { return msgLenFor(cfg, rank) }
	for rank, got := range res.Bundles {
		parts := make([]comm.Part, 0, len(got))
		for origin, data := range got {
			parts = append(parts, comm.Part{Origin: origin, Data: data})
		}
		if err := cfg.collective().Check(spec, sizes, rank, comm.Message{Parts: parts}); err != nil {
			return err
		}
	}
	return nil
}
