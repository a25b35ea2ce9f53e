package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	stpbcast "repro"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Options configure a Server. The zero value uses the defaults.
type Options struct {
	// Pool configures the warm-session pool.
	Pool PoolOptions
	// MaxInFlight caps concurrently admitted broadcast requests across
	// all tenants (default 64); excess requests get 503 + Retry-After.
	MaxInFlight int
	// TenantQuota caps in-flight requests per tenant (default 0 =
	// unlimited); a tenant over quota gets 429.
	TenantQuota int
	// DefaultRecvTimeout bounds blocking receives for requests that set
	// no deadline of their own (default 30s), so a dead rank turns into
	// a structured error instead of a wedged mesh.
	DefaultRecvTimeout time.Duration
	// MaxBodyBytes caps the request body (default 1 MiB).
	MaxBodyBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.DefaultRecvTimeout <= 0 {
		o.DefaultRecvTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	return o
}

// latencyWindow bounds the ring of recent request latencies backing the
// /v1/stats and /metrics quantiles.
const latencyWindow = 1024

// latencyRing keeps the most recent capacity latencies. Until the ring
// has wrapped, only slots actually recorded exist — quantiles over a
// partially filled window must never read zero-valued empty slots, so
// occupied() exposes exactly the recorded prefix and nothing else.
type latencyRing struct {
	capacity int
	buf      []time.Duration // grows to capacity, then wraps
	next     int             // overwrite cursor once full
}

func newLatencyRing(capacity int) *latencyRing {
	return &latencyRing{capacity: capacity}
}

// record adds one latency, evicting the oldest once the ring is full.
func (r *latencyRing) record(d time.Duration) {
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, d)
		return
	}
	r.buf[r.next] = d
	r.next = (r.next + 1) % r.capacity
}

// occupied returns how many latencies the ring currently holds (equal
// to the completions recorded until the window wraps).
func (r *latencyRing) occupied() int { return len(r.buf) }

// sortedSnapshot copies the occupied slots and sorts them for quantile
// extraction; the ring itself keeps insertion order.
func (r *latencyRing) sortedSnapshot() []time.Duration {
	out := append([]time.Duration(nil), r.buf...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Server implements the control plane over a Pool. Build with New,
// mount Handler on an http.Server, and Close when done (or drive the
// drain through Shutdown / POST /v1/shutdown and wait on Done).
type Server struct {
	opts  Options
	pool  *Pool
	mux   *http.ServeMux
	start time.Time

	mu        sync.Mutex
	inFlight  int
	draining  bool
	requests  int64
	completed int64
	failed    int64
	rejected  int64
	tenants   map[string]*tenantState
	latencies *latencyRing // recent server-side latencies
	events    EventCounts  // cumulative, from traced runs

	wg       sync.WaitGroup // in-flight broadcast requests
	done     chan struct{}  // closed when a drain has fully completed
	shutOnce sync.Once
}

// tenantState tracks one tenant's admission accounting.
type tenantState struct {
	inFlight int
	requests int64
}

// New builds a Server and its pool.
func New(opts Options) *Server {
	s := &Server{
		opts:      opts.withDefaults(),
		start:     time.Now(),
		tenants:   make(map[string]*tenantState),
		latencies: newLatencyRing(latencyWindow),
		done:      make(chan struct{}),
	}
	s.pool = NewPool(s.opts.Pool)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/broadcast", s.handleBroadcast)
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/ping", s.handlePing)
	mux.HandleFunc("/v1/shutdown", s.handleShutdown)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the control plane's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Done is closed once a drain (Shutdown or POST /v1/shutdown) has
// finished: no requests in flight, pool closed.
func (s *Server) Done() <-chan struct{} { return s.done }

// Shutdown starts a graceful drain: new broadcasts are refused with
// 503, in-flight ones finish, then the pool closes and Done is closed.
// It returns immediately; wait on Done for completion.
func (s *Server) Shutdown() {
	s.shutOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		go func() {
			s.wg.Wait()
			s.pool.Close()
			close(s.done)
		}()
	})
}

// Close force-closes the pool without waiting for a drain (tests and
// abnormal exit paths). Safe after Shutdown.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.pool.Close()
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes an ErrorResponse.
func writeError(w http.ResponseWriter, status int, key, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...), Key: key})
}

// admit performs backpressure admission for one broadcast request.
// On success the caller must invoke the returned release exactly once.
func (s *Server) admit(tenant string) (release func(), status int, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected++
		return nil, http.StatusServiceUnavailable, "daemon is draining"
	}
	if s.inFlight >= s.opts.MaxInFlight {
		s.rejected++
		return nil, http.StatusServiceUnavailable,
			fmt.Sprintf("daemon at max in-flight (%d)", s.opts.MaxInFlight)
	}
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		s.tenants[tenant] = ts
	}
	if s.opts.TenantQuota > 0 && ts.inFlight >= s.opts.TenantQuota {
		s.rejected++
		return nil, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over in-flight quota (%d)", tenant, s.opts.TenantQuota)
	}
	s.inFlight++
	ts.inFlight++
	ts.requests++
	s.requests++
	s.wg.Add(1)
	return func() {
		s.mu.Lock()
		s.inFlight--
		ts.inFlight--
		s.mu.Unlock()
		s.wg.Done()
	}, 0, ""
}

// recordOutcome folds one finished request into the counters.
func (s *Server) recordOutcome(ok bool, serverDur time.Duration, ev *EventCounts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		s.failed++
		return
	}
	s.completed++
	s.latencies.record(serverDur)
	if ev != nil {
		s.events.Sends += ev.Sends
		s.events.Recvs += ev.Recvs
		s.events.Waits += ev.Waits
		s.events.Barriers += ev.Barriers
		s.events.Faults += ev.Faults
		s.events.WaitNs += ev.WaitNs
	}
}

// decodeRequest reads one /v1/broadcast body into req, rejecting unknown
// fields, and normalizes it. It returns a client-error message ("" when
// valid).
func decodeRequest(body io.Reader, req *BroadcastRequest) string {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Sprintf("bad request body: %v", err)
	}
	return req.normalize()
}

func (s *Server) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "", "POST required")
		return
	}
	var req BroadcastRequest
	if msg := decodeRequest(io.LimitReader(r.Body, s.opts.MaxBodyBytes), &req); msg != "" {
		writeError(w, http.StatusBadRequest, "", "%s", msg)
		return
	}

	release, status, msg := s.admit(req.Tenant)
	if release == nil {
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "", "%s", msg)
		return
	}
	defer release()

	start := time.Now()
	key := req.key()
	lease, err := s.pool.Acquire(key)
	if err != nil {
		if err == ErrPoolFull {
			w.Header().Set("Retry-After", "1")
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
			writeError(w, http.StatusServiceUnavailable, key.String(), "%v", err)
			return
		}
		s.recordOutcome(false, 0, nil)
		writeError(w, http.StatusInternalServerError, key.String(), "open session: %v", err)
		return
	}
	defer lease.Release()

	opts := req.runOptions(s.opts.DefaultRecvTimeout)
	var rec *stpbcast.TraceRecorder
	if req.Trace {
		rec = stpbcast.NewTraceRecorder(1 << 16)
		opts.Trace = rec
	}
	res, err := lease.Session().Run(req.config(), opts)
	serverDur := time.Since(start)
	if err != nil {
		s.recordOutcome(false, serverDur, nil)
		writeError(w, http.StatusInternalServerError, key.String(), "broadcast failed: %v", err)
		return
	}
	var ev *EventCounts
	if rec != nil {
		ev = countEvents(rec)
	}
	s.recordOutcome(true, serverDur, ev)
	st := lease.Session().Stats()
	writeJSON(w, http.StatusOK, BroadcastResponse{
		Key:        key.String(),
		Collective: req.Collective,
		Algorithm:  req.Algorithm,
		ElapsedNs:  res.Elapsed.Nanoseconds(),
		ServerNs:   serverDur.Nanoseconds(),
		Runs:       st.Runs,
		Failures:   st.Failures,
		Bytes:      st.Bytes,
		Reconnects: st.Reconnects,
		Events:     ev,
	})
}

// countEvents folds a traced run's stream into per-kind counts and the
// total blocked-receive time (the paper's wait parameter, summed).
func countEvents(rec *stpbcast.TraceRecorder) *EventCounts {
	var ev EventCounts
	for _, e := range rec.Events {
		switch e.Kind {
		case obs.KindSend:
			ev.Sends++
		case obs.KindRecv:
			ev.Recvs++
		case obs.KindWait:
			ev.Waits++
			ev.WaitNs += int64(e.Dur)
		case obs.KindBarrier:
			ev.Barriers++
		case obs.KindFault:
			ev.Faults++
		}
	}
	return &ev
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	infos := s.pool.Sessions()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	writeJSON(w, http.StatusOK, SessionsResponse{Sessions: infos})
}

// statsLocked assembles the StatsResponse; s.mu must be held.
func (s *Server) statsLocked() StatsResponse {
	st := StatsResponse{
		Requests:  s.requests,
		Completed: s.completed,
		Failed:    s.failed,
		Rejected:  s.rejected,
		InFlight:  s.inFlight,
		Sessions:  s.pool.Len(),
		Opens:     s.pool.Opens(),
		Evictions: s.pool.Evictions(),
		Draining:  s.draining,
		UptimeMs:  time.Since(s.start).Milliseconds(),
	}
	if len(s.tenants) > 0 {
		st.TenantRequests = make(map[string]int64, len(s.tenants))
		for name, ts := range s.tenants {
			st.TenantRequests[name] = ts.requests
		}
	}
	if s.latencies.occupied() > 0 {
		sorted := s.latencies.sortedSnapshot()
		st.P50Ms = quantile(sorted, 0.50)
		st.P95Ms = quantile(sorted, 0.95)
		st.P99Ms = quantile(sorted, 0.99)
	}
	return st
}

// quantile returns the q-quantile of sorted latencies in milliseconds.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Nanoseconds()) / 1e6
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.statsLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, PingResponse{
		OK:       true,
		Draining: draining,
		UptimeMs: time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "", "POST required")
		return
	}
	s.Shutdown()
	writeJSON(w, http.StatusOK, ShutdownResponse{Draining: true})
}

// handleMetrics renders the counters in Prometheus text exposition
// style: daemon admission/outcome counters, per-session SessionStats,
// latency quantiles, cumulative obs event counts from traced runs, and
// every process-wide internal/metrics counter (planner cache and probe
// counts land here).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.statsLocked()
	ev := s.events
	s.mu.Unlock()
	infos := s.pool.Sessions()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "stpbcastd_requests_total %d\n", st.Requests)
	fmt.Fprintf(w, "stpbcastd_completed_total %d\n", st.Completed)
	fmt.Fprintf(w, "stpbcastd_failed_total %d\n", st.Failed)
	fmt.Fprintf(w, "stpbcastd_rejected_total %d\n", st.Rejected)
	fmt.Fprintf(w, "stpbcastd_in_flight %d\n", st.InFlight)
	fmt.Fprintf(w, "stpbcastd_sessions %d\n", st.Sessions)
	fmt.Fprintf(w, "stpbcastd_session_opens_total %d\n", st.Opens)
	fmt.Fprintf(w, "stpbcastd_session_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(w, "stpbcastd_draining %d\n", boolTo01(st.Draining))
	fmt.Fprintf(w, "stpbcastd_uptime_seconds %.3f\n", float64(st.UptimeMs)/1e3)
	fmt.Fprintf(w, "stpbcastd_latency_p50_seconds %.6f\n", st.P50Ms/1e3)
	fmt.Fprintf(w, "stpbcastd_latency_p95_seconds %.6f\n", st.P95Ms/1e3)
	fmt.Fprintf(w, "stpbcastd_latency_p99_seconds %.6f\n", st.P99Ms/1e3)
	fmt.Fprintf(w, "stpbcastd_events_total{kind=\"send\"} %d\n", ev.Sends)
	fmt.Fprintf(w, "stpbcastd_events_total{kind=\"recv\"} %d\n", ev.Recvs)
	fmt.Fprintf(w, "stpbcastd_events_total{kind=\"wait\"} %d\n", ev.Waits)
	fmt.Fprintf(w, "stpbcastd_events_total{kind=\"barrier\"} %d\n", ev.Barriers)
	fmt.Fprintf(w, "stpbcastd_events_total{kind=\"fault\"} %d\n", ev.Faults)
	fmt.Fprintf(w, "stpbcastd_wait_ns_total %d\n", ev.WaitNs)
	for _, info := range infos {
		fmt.Fprintf(w, "stpbcastd_session_runs{key=%q} %d\n", info.Key, info.Runs)
		fmt.Fprintf(w, "stpbcastd_session_failures{key=%q} %d\n", info.Key, info.Failures)
		fmt.Fprintf(w, "stpbcastd_session_bytes{key=%q} %d\n", info.Key, info.Bytes)
		fmt.Fprintf(w, "stpbcastd_session_reconnects{key=%q} %d\n", info.Key, info.Reconnects)
	}
	tenants := make([]string, 0, len(st.TenantRequests))
	for name := range st.TenantRequests {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		fmt.Fprintf(w, "stpbcastd_tenant_requests_total{tenant=%q} %d\n", name, st.TenantRequests[name])
	}
	for _, c := range metrics.Counters() {
		fmt.Fprintf(w, "stpbcast_counter{name=%q} %d\n", c.Name, c.Value)
	}
}

func boolTo01(b bool) int {
	if b {
		return 1
	}
	return 0
}
