package daemon

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	stpbcast "repro"
)

// TestKillFaultReturnsStructuredErrorAndReconnects is the daemon
// failure path: a request whose fault plan kills a rank mid-run must
// come back as a structured JSON error (not a hang, not a dropped
// connection), and the pool must transparently rebuild the damaged mesh
// on the next request for the same key — observable as an incremented
// SessionStats.Reconnects in the response.
func TestKillFaultReturnsStructuredErrorAndReconnects(t *testing.T) {
	_, base := testServer(t, Options{})
	req := BroadcastRequest{
		Engine:        "tcp",
		Rows:          3,
		Cols:          4,
		Algorithm:     "Br_Lin",
		Distribution:  "Cr",
		Sources:       5,
		MsgBytes:      64,
		RecvTimeoutMs: 5_000,
		Kill:          &KillSpec{Rank: 5, Op: 2},
	}

	status, _, e := post(t, base, req)
	if status != http.StatusInternalServerError {
		t.Fatalf("killed run returned status %d, want 500", status)
	}
	if !strings.Contains(e.Error, "rank 5 killed") {
		t.Fatalf("error %q does not carry the kill diagnostic", e.Error)
	}
	if e.Key != "tcp/paragon/3x4" {
		t.Errorf("error names key %q, want tcp/paragon/3x4", e.Key)
	}

	// The same key serves the next (clean) request over a rebuilt mesh.
	req.Kill = nil
	status, out, e2 := post(t, base, req)
	if status != http.StatusOK {
		t.Fatalf("clean request after kill failed with %d: %s", status, e2.Error)
	}
	if out.Reconnects < 1 {
		t.Errorf("reconnects = %d after a killed run, want ≥ 1", out.Reconnects)
	}
	if out.Runs != 2 || out.Failures != 1 {
		t.Errorf("session stats runs=%d failures=%d, want 2/1", out.Runs, out.Failures)
	}

	// The failure is visible on /metrics too.
	metrics := getMetrics(t, base)
	for _, want := range []string{
		"stpbcastd_failed_total 1",
		"stpbcastd_session_failures{key=\"tcp/paragon/3x4\"} 1",
		"stpbcastd_session_reconnects{key=\"tcp/paragon/3x4\"} 1",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBundleCheckFailureIsStructured5xx: a run whose delivered bytes fail
// the daemon's check — here one byte flipped on its way to rank 2 — is
// a 500 naming the rank, the origin and the byte, not a 200, and counts
// as the session's failure in the next reply and on /metrics.
func TestBundleCheckFailureIsStructured5xx(t *testing.T) {
	srv, base := testServer(t, Options{})
	planted := false
	srv.verify = func(res *stpbcast.Result) error {
		if !planted {
			planted = true
			for origin, data := range res.Bundles[2] {
				flipped := bytes.Clone(data)
				flipped[5] ^= 0xFF
				res.Bundles[2][origin] = flipped
				break
			}
		}
		return res.Check()
	}
	req := BroadcastRequest{Engine: "tcp", Rows: 2, Cols: 2, Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: 8}
	status, _, e := post(t, base, req)
	if status != http.StatusInternalServerError {
		t.Fatalf("corrupt delivery returned status %d, want 500", status)
	}
	for _, want := range []string{"bundle check failed", "rank 2, origin", "byte 5 is"} {
		if !strings.Contains(e.Error, want) {
			t.Errorf("error %q does not contain %q", e.Error, want)
		}
	}
	if e.Key != "tcp/paragon/2x2" {
		t.Errorf("error names key %q, want tcp/paragon/2x2", e.Key)
	}
	status, out, e2 := post(t, base, req)
	if status != http.StatusOK {
		t.Fatalf("intact request failed with %d: %s", status, e2.Error)
	}
	if out.Runs != 2 || out.Failures != 1 {
		t.Errorf("session stats runs=%d failures=%d, want 2/1", out.Runs, out.Failures)
	}
	metrics := getMetrics(t, base)
	for _, want := range []string{
		"stpbcastd_failed_total 1",
		"stpbcastd_completed_total 1",
		"stpbcastd_session_failures{key=\"tcp/paragon/2x2\"} 1",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
