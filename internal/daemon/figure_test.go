package daemon

import (
	"testing"

	"repro/internal/bench"
)

// TestFigDaemonRegistered: linking this package must make the figure
// visible to the experiment registry (it registers itself at init to
// break the bench → daemon → repro → bench cycle).
func TestFigDaemonRegistered(t *testing.T) {
	e, err := bench.ByID("figDaemon")
	if err != nil {
		t.Fatal(err)
	}
	if e.Run == nil {
		t.Fatal("figDaemon registered without a Run func")
	}
}

// TestFigDaemonShape runs the figure's workload at one representative
// concurrency level against both servers — the pooled one and the one
// opening a fresh session per request — and every request must complete.
// The req/s ratio is wall clock, reported and not gated; what it measures
// is counted by TestPoolReusesWarmSession (one session per key) and
// TestPoolDisabledOpensFreshSessions (one per request).
func TestFigDaemonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 4x4 TCP meshes per request in the baseline")
	}
	const conc = 4
	fresh, err := figDaemonLevel(conc, true)
	if err != nil {
		t.Fatalf("fresh baseline: %v", err)
	}
	pooled, err := figDaemonLevel(conc, false)
	if err != nil {
		t.Fatalf("pooled: %v", err)
	}
	t.Logf("fresh %.1f req/s, pooled %.1f req/s (%.2fx), pooled p95 %.2f ms",
		fresh.ReqPerSec, pooled.ReqPerSec, pooled.ReqPerSec/fresh.ReqPerSec, pooled.P95Ms)
}
