package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer stands up an in-process daemon and returns its base URL.
func testServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts.URL
}

// post issues one broadcast and returns the decoded response (status,
// success body or error body).
func post(t *testing.T, base string, req BroadcastRequest) (int, *BroadcastResponse, *ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/broadcast", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out BroadcastResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &out, nil
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("status %d with undecodable error body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, nil, &e
}

// getStats reads GET /v1/stats.
func getStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEndToEndConcurrentAcrossKeys is the acceptance scenario: ≥8
// concurrent broadcast requests across ≥2 session keys through the HTTP
// API, all succeeding, with /metrics reflecting the run counts.
func TestEndToEndConcurrentAcrossKeys(t *testing.T) {
	_, base := testServer(t, Options{})
	reqs := []BroadcastRequest{
		{Engine: "sim", Rows: 4, Cols: 4, Algorithm: "Br_xy_source", Distribution: "E", Sources: 4, MsgBytes: 4096},
		{Engine: "live", Rows: 3, Cols: 3, Algorithm: "Br_Lin", Distribution: "E", Sources: 3, MsgBytes: 256},
		{Engine: "tcp", Rows: 2, Cols: 2, Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: 128},
	}
	const perKey = 4 // 12 concurrent requests over 3 keys
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs)*perKey)
	for _, req := range reqs {
		for i := 0; i < perKey; i++ {
			wg.Add(1)
			go func(req BroadcastRequest) {
				defer wg.Done()
				status, out, e := post(t, base, req)
				if status != http.StatusOK {
					errs <- fmt.Errorf("%s/%dx%d: status %d: %s", req.Engine, req.Rows, req.Cols, status, e.Error)
					return
				}
				if out.ElapsedNs <= 0 {
					errs <- fmt.Errorf("%s: non-positive elapsed %d", req.Engine, out.ElapsedNs)
				}
			}(req)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every key served perKey runs over one warm session.
	resp, err := http.Get(base + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var sessions SessionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sessions); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sessions.Sessions) != len(reqs) {
		t.Fatalf("%d warm sessions, want %d", len(sessions.Sessions), len(reqs))
	}
	for _, s := range sessions.Sessions {
		if s.Runs != perKey {
			t.Errorf("session %s served %d runs, want %d", s.Key, s.Runs, perKey)
		}
		if s.Failures != 0 {
			t.Errorf("session %s reports %d failures", s.Key, s.Failures)
		}
	}

	// /metrics agrees with what just happened.
	metrics := getMetrics(t, base)
	total := len(reqs) * perKey
	wantLines := []string{
		fmt.Sprintf("stpbcastd_requests_total %d", total),
		fmt.Sprintf("stpbcastd_completed_total %d", total),
		"stpbcastd_failed_total 0",
		fmt.Sprintf("stpbcastd_sessions %d", len(reqs)),
		fmt.Sprintf("stpbcastd_session_runs{key=\"sim/paragon/4x4\"} %d", perKey),
		fmt.Sprintf("stpbcastd_session_runs{key=\"live/paragon/3x3\"} %d", perKey),
		fmt.Sprintf("stpbcastd_session_runs{key=\"tcp/paragon/2x2\"} %d", perKey),
		fmt.Sprintf("stpbcastd_tenant_requests_total{tenant=\"anonymous\"} %d", total),
	}
	for _, want := range wantLines {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestBroadcastRequestValidation(t *testing.T) {
	_, base := testServer(t, Options{})
	cases := []struct {
		name string
		req  BroadcastRequest
		want string
	}{
		{"unknown engine", BroadcastRequest{Engine: "quantum", Rows: 2, Cols: 2}, "unknown engine"},
		{"zero mesh", BroadcastRequest{Engine: "sim"}, "rows and cols"},
		{"unknown algorithm", BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2, Algorithm: "Br_Nope"}, "unknown algorithm"},
		{"unknown distribution", BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2, Distribution: "Z"}, "unknown distribution"},
		{"negative bytes", BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2, MsgBytes: -1}, "Config.MsgBytes: negative message length"},
		{"kill on sim", BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2, Kill: &KillSpec{Rank: 1, Op: 0}}, "real-byte engine"},
		{"bad topology", BroadcastRequest{Engine: "sim", Topology: "dragonfly", Rows: 2, Cols: 2}, "unknown machine"},
		{"unknown collective", BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2, Collective: "Gossip"}, "unknown collective"},
		{"wrong-collective algorithm", BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2, Collective: "AllReduce", Algorithm: "Br_Lin"}, "implements Broadcast, not AllReduce"},
		{"distribution on an all-to-all", BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2, Collective: "AllToAll", Distribution: "E"}, "no source placement"},
		{"sources on an allgather", BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2, Collective: "AllGather", Sources: 2}, "no source count"},
		{"two roots on a scatter", BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2, Collective: "Scatter", Sources: 2}, "single root"},
		// The session refuses these, before a run is counted.
		{"more sources than ranks", BroadcastRequest{Engine: "live", Rows: 2, Cols: 2, Sources: 100}, "source count 100 outside [1,4]"},
		{"kill of a rank the mesh lacks", BroadcastRequest{Engine: "live", Rows: 2, Cols: 2, Kill: &KillSpec{Rank: 9}},
			"FaultPlan.Kills[0]: rank 9 outside the machine's 4 ranks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, e := post(t, base, tc.req)
			if status != http.StatusBadRequest {
				t.Fatalf("request %+v answered %d, want %d", tc.req, status, http.StatusBadRequest)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
	// A caller's error is no failed run.
	if st := getStats(t, base); st.Completed != 0 || st.Failed != 0 {
		t.Errorf("stats after invalid requests: %d completed, %d failed, want 0 and 0", st.Completed, st.Failed)
	}
	// Unknown fields are rejected, so typos cannot silently become
	// defaults.
	resp, err := http.Post(base+"/v1/broadcast", "application/json",
		strings.NewReader(`{"engine":"sim","rows":2,"cols":2,"msgbytes":1024}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted with status %d", resp.StatusCode)
	}
}

// TestBroadcastCollectives drives non-broadcast collectives through
// POST /v1/broadcast: the normalized collective is echoed back, the run
// succeeds on sim and live engines over the same warm session a plain
// broadcast uses, and an absent collective still means Broadcast.
func TestBroadcastCollectives(t *testing.T) {
	_, base := testServer(t, Options{})
	cases := []BroadcastRequest{
		{Engine: "sim", Rows: 4, Cols: 4, Collective: "AllReduce", MsgBytes: 256},
		{Engine: "sim", Rows: 4, Cols: 4, Collective: "AllToAll", Algorithm: "A2A_Pairwise", MsgBytes: 64},
		{Engine: "live", Rows: 4, Cols: 4, Collective: "Scatter", Algorithm: "Scatter_Binomial", MsgBytes: 64},
		{Engine: "live", Rows: 4, Cols: 4, Collective: "AllGather", MsgBytes: 64},
	}
	for _, req := range cases {
		status, out, e := post(t, base, req)
		if status != http.StatusOK {
			t.Fatalf("%s/%s: status %d: %s", req.Engine, req.Collective, status, e.Error)
		}
		if out.Collective != req.Collective {
			t.Errorf("%s: response echoes collective %q, want %q", req.Collective, out.Collective, req.Collective)
		}
		if out.ElapsedNs <= 0 {
			t.Errorf("%s/%s: non-positive elapsed %d", req.Engine, req.Collective, out.ElapsedNs)
		}
	}
	// Absent collective normalizes to Broadcast (the pre-collective wire
	// contract), sharing the sim/paragon/4x4 session with the runs above.
	status, out, e := post(t, base, BroadcastRequest{Engine: "sim", Rows: 4, Cols: 4, MsgBytes: 128})
	if status != http.StatusOK {
		t.Fatalf("plain broadcast: status %d: %s", status, e.Error)
	}
	if out.Collective != "Broadcast" {
		t.Errorf("absent collective echoed as %q, want Broadcast", out.Collective)
	}
}

func TestAdmissionBackpressure(t *testing.T) {
	s := New(Options{MaxInFlight: 2, TenantQuota: 1})
	defer s.Close()

	rel1, status, _ := s.admit("a")
	if rel1 == nil {
		t.Fatalf("first admit rejected with %d", status)
	}
	// Tenant "a" is at quota → 429; tenant "b" still fits.
	if rel, status, _ := s.admit("a"); rel != nil {
		t.Fatal("tenant over quota admitted")
	} else if status != http.StatusTooManyRequests {
		t.Fatalf("tenant over quota got %d, want 429", status)
	}
	rel2, status, _ := s.admit("b")
	if rel2 == nil {
		t.Fatalf("second tenant rejected with %d", status)
	}
	// Global cap reached → 503 even for a fresh tenant.
	if rel, status, _ := s.admit("c"); rel != nil {
		t.Fatal("admit over global cap succeeded")
	} else if status != http.StatusServiceUnavailable {
		t.Fatalf("over-cap admit got %d, want 503", status)
	}
	rel1()
	rel2()
	// Capacity freed: the same tenant fits again.
	rel3, status, _ := s.admit("a")
	if rel3 == nil {
		t.Fatalf("admit after release rejected with %d", status)
	}
	rel3()
}

// TestOversizedMeshRefusedBeforeOpen: a live request for a 64×64 mesh
// (4 096 ranks, past the facade's 1 024-processor cap) is a 400 naming
// the cap, and so is a live request Config.Validate refuses; no session
// is opened for either.
func TestOversizedMeshRefusedBeforeOpen(t *testing.T) {
	srv, base := testServer(t, Options{})
	for _, tc := range []struct {
		req  BroadcastRequest
		want string
	}{
		{BroadcastRequest{Engine: "live", Rows: 64, Cols: 64}, "exceeds 1024 processors"},
		{BroadcastRequest{Engine: "live", Rows: 2, Cols: 2, Collective: "Scatter", Sources: 2}, "Config.Sources: Scatter has a single root"},
	} {
		status, _, e := post(t, base, tc.req)
		if status != http.StatusBadRequest {
			t.Fatalf("request %+v got %d, want 400", tc.req, status)
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("error %q does not mention %q", e.Error, tc.want)
		}
	}
	if n := srv.pool.Opens(); n != 0 {
		t.Errorf("pool opened %d sessions for a refused request", n)
	}
	if st := getStats(t, base); st.Opens != 0 {
		t.Errorf("StatsResponse.Opens = %d after refused requests, want 0", st.Opens)
	}
}

// TestTenantTableBounded: a tenant name over 64 bytes is a 400, and once
// the daemon tracks maxTenants tenants a request for a new one is a 429
// naming the cap, counted as rejected, while a known tenant still runs.
func TestTenantTableBounded(t *testing.T) {
	srv, base := testServer(t, Options{})
	req := BroadcastRequest{Engine: "sim", Rows: 1, Cols: 1, Tenant: strings.Repeat("t", 65)}
	if status, _, e := post(t, base, req); status != http.StatusBadRequest || !strings.Contains(e.Error, "exceeds 64") {
		t.Fatalf("65-byte tenant name got %d %+v, want 400 naming the 64-byte cap", status, e)
	}
	for i := 0; i < maxTenants; i++ {
		release, status, msg := srv.admit(fmt.Sprint("tenant-", i))
		if release == nil {
			t.Fatalf("tenant %d refused with %d: %s", i, status, msg)
		}
		release()
	}
	req.Tenant = "one-too-many"
	status, _, e := post(t, base, req)
	if status != http.StatusTooManyRequests || !strings.Contains(e.Error, "1024 tenants") {
		t.Fatalf("tenant past the cap got %d %+v, want 429 naming the cap", status, e)
	}
	req.Tenant = "tenant-0"
	if status, _, e := post(t, base, req); status != http.StatusOK {
		t.Fatalf("known tenant refused with %d %+v", status, e)
	}
	srv.mu.Lock()
	st := srv.statsLocked()
	srv.mu.Unlock()
	if st.Rejected != 1 || len(st.TenantRequests) != maxTenants {
		t.Errorf("rejected %d, tenants %d; want 1 and %d", st.Rejected, len(st.TenantRequests), maxTenants)
	}
}

func TestShutdownDrains(t *testing.T) {
	srv, base := testServer(t, Options{})
	if status, _, _ := post(t, base, BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2}); status != http.StatusOK {
		t.Fatalf("warm-up broadcast failed with %d", status)
	}
	resp, err := http.Post(base+"/v1/shutdown", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	status, _, e := post(t, base, BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("broadcast after drain got %d, want 503", status)
	}
	if !strings.Contains(e.Error, "draining") {
		t.Errorf("post-drain error %q does not mention draining", e.Error)
	}
}

// TestLatencyRingPartialWindow pins the quantile fix: with fewer
// completed broadcasts than the ring's capacity, quantiles must be
// computed over only the recorded latencies — never over zero-valued
// empty slots, which would drag every quantile toward 0.
func TestLatencyRingPartialWindow(t *testing.T) {
	r := newLatencyRing(8)
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		r.record(d)
	}
	if got := r.occupied(); got != 3 {
		t.Fatalf("occupied() = %d after 3 records, want 3", got)
	}
	sorted := r.sortedSnapshot()
	if len(sorted) != 3 {
		t.Fatalf("snapshot holds %d latencies, want 3 (empty slots must not leak in)", len(sorted))
	}
	if sorted[0] != 10*time.Millisecond || sorted[2] != 30*time.Millisecond {
		t.Fatalf("snapshot not sorted: %v", sorted)
	}
	// All three recorded latencies are ≥10ms, so every quantile must be
	// too; a zero-padded window would report p50 = 0.
	if p50 := quantile(sorted, 0.50); p50 < 10 {
		t.Errorf("p50 over partial window = %.2fms, want >= 10ms", p50)
	}
	if p99 := quantile(sorted, 0.99); p99 != 30 {
		t.Errorf("p99 over partial window = %.2fms, want 30ms (the max)", p99)
	}
}

// TestLatencyRingWraps checks eviction order once the window fills:
// the oldest latency leaves first and occupancy stays at capacity.
func TestLatencyRingWraps(t *testing.T) {
	r := newLatencyRing(4)
	for i := 1; i <= 6; i++ { // 1ms..6ms; 1ms and 2ms must be evicted
		r.record(time.Duration(i) * time.Millisecond)
	}
	if got := r.occupied(); got != 4 {
		t.Fatalf("occupied() = %d after wrap, want 4", got)
	}
	sorted := r.sortedSnapshot()
	if sorted[0] != 3*time.Millisecond || sorted[3] != 6*time.Millisecond {
		t.Fatalf("ring kept %v, want the 4 most recent (3ms..6ms)", sorted)
	}
}

// TestStatsQuantilesFewerThanWindow drives the fix end to end: a
// handful of broadcasts (far fewer than latencyWindow) must yield
// positive, ordered quantiles from /v1/stats.
func TestStatsQuantilesFewerThanWindow(t *testing.T) {
	_, base := testServer(t, Options{})
	const n = 3
	for i := 0; i < n; i++ {
		if status, _, e := post(t, base, BroadcastRequest{Engine: "sim", Rows: 2, Cols: 2}); status != http.StatusOK {
			t.Fatalf("broadcast %d failed with %d: %+v", i, status, e)
		}
	}
	st := getStats(t, base)
	if st.Completed != n {
		t.Fatalf("completed = %d, want %d", st.Completed, n)
	}
	if st.P50Ms <= 0 || st.P95Ms <= 0 || st.P99Ms <= 0 {
		t.Errorf("quantiles over %d broadcasts include a non-positive value: p50=%v p95=%v p99=%v",
			n, st.P50Ms, st.P95Ms, st.P99Ms)
	}
	if st.P50Ms > st.P95Ms || st.P95Ms > st.P99Ms {
		t.Errorf("quantiles out of order: p50=%v p95=%v p99=%v", st.P50Ms, st.P95Ms, st.P99Ms)
	}
}

// TestSameKeyRequestsShareSession hammers one TCP mesh key with 8
// concurrent requests. They queue on the key's lease; every one must
// succeed and one warm session must serve all 8 runs.
func TestSameKeyRequestsShareSession(t *testing.T) {
	_, base := testServer(t, Options{})
	req := BroadcastRequest{Engine: "tcp", Rows: 2, Cols: 2, Algorithm: "Br_Lin", Distribution: "E", Sources: 2, MsgBytes: 128}
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, out, e := post(t, base, req)
			if status != http.StatusOK {
				errs <- fmt.Errorf("status %d: %+v", status, e)
				return
			}
			if out.ElapsedNs <= 0 {
				errs <- fmt.Errorf("non-positive elapsed %d", out.ElapsedNs)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	resp, err := http.Get(base + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sessions SessionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sessions); err != nil {
		t.Fatal(err)
	}
	if len(sessions.Sessions) != 1 {
		t.Fatalf("%d warm sessions, want 1 (single key)", len(sessions.Sessions))
	}
	if got := sessions.Sessions[0].Runs; got != n {
		t.Errorf("warm session served %d runs, want %d", got, n)
	}
	if f := sessions.Sessions[0].Failures; f != 0 {
		t.Errorf("warm session reports %d failures", f)
	}
}

// TestLoadCompletesPooled drives stpbench daemon's in-process workload —
// closed-loop 1 KiB Br_Lin E(4) broadcasts on a 4×4 TCP mesh from 4
// concurrent clients — against a pooled daemon: every request must
// complete. Its req/s is wall clock and not asserted; that the pool
// opens one session per key is counted by TestPoolReusesWarmSession.
func TestLoadCompletesPooled(t *testing.T) {
	body, err := json.Marshal(BroadcastRequest{
		Engine: "tcp", Topology: "paragon", Rows: 4, Cols: 4,
		Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: 1024, RecvTimeoutMs: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 8
	_, base := testServer(t, Options{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(base+"/v1/broadcast", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out BroadcastResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("status %d, decode %v", resp.StatusCode, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMethodChecks(t *testing.T) {
	_, base := testServer(t, Options{})
	resp, err := http.Get(base + "/v1/broadcast")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/broadcast got %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/shutdown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/shutdown got %d, want 405", resp.StatusCode)
	}
}

// TestRequestAllocationBudget counts what the daemon allocates per
// request of the benchmark's daemon_tcp_small workload: the in-process
// handler (decode → admit → lease → Session.Run → encode) on a response
// recorder, serving a warm p=16 TCP Br_Lin E(4) 1 KiB broadcast. The
// recorder and request it is called with are counted too; net/http's
// per-connection work is not. The least of several rounds, so a
// collection during one does not count: 45 allocations today, the
// result's bundle maps, received bytes and part arrays all recycled.
func TestRequestAllocationBudget(t *testing.T) {
	srv := New(Options{})
	defer srv.Close()
	h := srv.Handler()
	body, err := json.Marshal(BroadcastRequest{
		Engine: "tcp", Topology: "paragon", Rows: 4, Cols: 4,
		Algorithm: "Br_Lin", Distribution: "E", Sources: 4, MsgBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/broadcast", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // opens the pooled session
	least := math.Inf(1)
	for range 5 {
		least = min(least, testing.AllocsPerRun(50, serve))
	}
	t.Logf("%.0f allocations per request", least)
	if least > requestAllocBudget {
		t.Errorf("%.0f allocations per request, budget %d", least, requestAllocBudget)
	}
}
