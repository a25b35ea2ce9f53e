// Package daemon is the broadcast-as-a-service layer: a keyed pool of
// warm stpbcast.Sessions multiplexing concurrent requests onto shared
// engine meshes, fronted by a JSON-over-HTTP control plane with
// per-tenant quotas, global in-flight backpressure and a text-format
// /metrics endpoint. cmd/stpbcastd serves it, cmd/stpctl speaks it, and
// stpbench's -daemon mode load-tests it.
//
// Endpoints:
//
//	POST /v1/broadcast   run one broadcast (BroadcastRequest → BroadcastResponse)
//	GET  /v1/sessions    the warm-session pool (SessionsResponse)
//	GET  /v1/stats       daemon-wide counters (StatsResponse)
//	GET  /v1/ping        liveness (PingResponse)
//	GET  /metrics        text-format counters (Prometheus exposition style)
//	POST /v1/shutdown    graceful drain: stop admitting, finish in-flight, close the pool
//
// Every error body is an ErrorResponse. Backpressure is by status code:
// 429 when a tenant exceeds its in-flight quota, 503 when the daemon is
// at its global in-flight cap, the pool is full of busy meshes, or a
// drain is in progress.
package daemon

import (
	"fmt"
	"strings"
	"time"

	stpbcast "repro"
)

// Key identifies one warm session in the pool: requests that agree on
// engine, machine kind and mesh size share a mesh and queue onto it;
// anything else (algorithm, distribution, sources, message length) may
// vary per request over the same warm session.
type Key struct {
	Engine   string `json:"engine"`
	Topology string `json:"topology"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
}

// String renders the key in its canonical "engine/topology/RxC" form,
// used in responses and as the /metrics label.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%dx%d", k.Engine, k.Topology, k.Rows, k.Cols)
}

// open stands up the key's machine and warm session.
func (k Key) open() (*stpbcast.Session, error) {
	eng, err := stpbcast.ParseEngine(k.Engine)
	if err != nil {
		return nil, err
	}
	m, err := stpbcast.NewMachineByName(k.Topology, k.Rows, k.Cols)
	if err != nil {
		return nil, err
	}
	return stpbcast.Open(m, eng, stpbcast.SessionOptions{})
}

// KillSpec injects a deterministic rank kill into the run (real-byte
// engines only) — the chaos hook behind the daemon failure-path tests
// and load-generator fault mixes.
type KillSpec struct {
	// Rank is the rank to kill; Op is the operation index at which it
	// dies (see stpbcast.FaultKill).
	Rank int `json:"rank"`
	Op   int `json:"op"`
}

// BroadcastRequest is the body of POST /v1/broadcast. Engine, topology,
// rows and cols select the pooled session; the remaining fields
// configure this run only.
type BroadcastRequest struct {
	// Engine is "sim", "live" or "tcp" (default "sim").
	Engine string `json:"engine,omitempty"`
	// Topology is "paragon", "paragon-mpi", "t3d" or "hypercube"
	// (default "paragon").
	Topology string `json:"topology,omitempty"`
	// Rows, Cols give the logical mesh (required, positive).
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Collective is the communication pattern ("Broadcast", "Reduce",
	// "AllReduce", "Scatter", "AllGather", "AllToAll"); absent means
	// Broadcast, so pre-collective clients keep their meaning.
	Collective string `json:"collective,omitempty"`
	// Algorithm is a registry name of the collective or "Auto" (the
	// default).
	Algorithm string `json:"algorithm,omitempty"`
	// Distribution is a paper distribution name (default "E" for the
	// collectives that take a source set; must stay unset for AllGather
	// and AllToAll, where every rank contributes).
	Distribution string `json:"distribution,omitempty"`
	// Sources is the source count s (default 1 for the collectives that
	// take a source set; must stay unset for AllGather and AllToAll).
	Sources int `json:"sources,omitempty"`
	// MsgBytes is the per-source message length L (default 0).
	MsgBytes int `json:"msg_bytes,omitempty"`
	// Tenant attributes the request for quota accounting and the
	// per-tenant counters (default "anonymous").
	Tenant string `json:"tenant,omitempty"`
	// RecvTimeoutMs / RunTimeoutMs bound the run (0 = the daemon's
	// default receive deadline, so a dead rank can never wedge a mesh).
	RecvTimeoutMs int64 `json:"recv_timeout_ms,omitempty"`
	RunTimeoutMs  int64 `json:"run_timeout_ms,omitempty"`
	// Kill, when set, injects a rank kill (chaos testing).
	Kill *KillSpec `json:"kill,omitempty"`
	// Trace records the run's event stream and reports per-kind counts
	// and total blocked-receive time in the response (and feeds the
	// daemon's cumulative stpbcastd_events_total metrics).
	Trace bool `json:"trace,omitempty"`
}

// normalize applies defaults and validates what can be checked without a
// machine. It returns a client-error message ("" when valid).
func (r *BroadcastRequest) normalize() string {
	if r.Engine == "" {
		r.Engine = "sim"
	}
	r.Engine = strings.ToLower(r.Engine)
	if _, err := stpbcast.ParseEngine(r.Engine); err != nil {
		return err.Error()
	}
	if r.Topology == "" {
		r.Topology = "paragon"
	}
	r.Topology = strings.ToLower(r.Topology)
	if r.Rows < 1 || r.Cols < 1 {
		return fmt.Sprintf("rows and cols must be positive, got %dx%d", r.Rows, r.Cols)
	}
	if _, err := stpbcast.NewMachineByName(r.Topology, r.Rows, r.Cols); err != nil {
		return err.Error()
	}
	coll, err := stpbcast.ParseCollective(r.Collective)
	if err != nil {
		return err.Error()
	}
	r.Collective = string(coll)
	if r.Algorithm == "" {
		r.Algorithm = stpbcast.AutoAlgorithm
	}
	if r.Algorithm != stpbcast.AutoAlgorithm {
		if _, err := stpbcast.AlgorithmByNameFor(coll, r.Algorithm); err != nil {
			return err.Error()
		}
	}
	if coll.Caps().TakesSources {
		if r.Distribution == "" {
			r.Distribution = "E"
		}
		if _, err := stpbcast.DistributionByName(r.Distribution); err != nil {
			return err.Error()
		}
		if r.Sources == 0 {
			r.Sources = 1
		}
		if r.Sources < 1 {
			return fmt.Sprintf("sources must be positive, got %d", r.Sources)
		}
		if coll.Caps().SingleSource && r.Sources > 1 {
			return fmt.Sprintf("%s takes a single root, got sources=%d", coll, r.Sources)
		}
	} else {
		// Sourceless collectives (AllGather, AllToAll): every rank
		// contributes, so a distribution or source count is a client
		// error, not something to silently ignore.
		if r.Distribution != "" {
			return fmt.Sprintf("%s takes no source distribution (got %q): every rank contributes", coll, r.Distribution)
		}
		if r.Sources != 0 {
			return fmt.Sprintf("%s takes no source count (got %d): every rank contributes", coll, r.Sources)
		}
	}
	if r.MsgBytes < 0 {
		return fmt.Sprintf("msg_bytes must be non-negative, got %d", r.MsgBytes)
	}
	if r.Tenant == "" {
		r.Tenant = "anonymous"
	}
	if r.Kill != nil && r.Engine == "sim" {
		return "kill injection requires a real-byte engine (live or tcp)"
	}
	if r.RecvTimeoutMs < 0 || r.RunTimeoutMs < 0 {
		return "timeouts must be non-negative"
	}
	return ""
}

// key returns the pool key the request maps onto (call after normalize).
func (r *BroadcastRequest) key() Key {
	return Key{Engine: r.Engine, Topology: r.Topology, Rows: r.Rows, Cols: r.Cols}
}

// config builds the per-run broadcast config (call after normalize).
func (r *BroadcastRequest) config() stpbcast.Config {
	return stpbcast.Config{
		Collective:   stpbcast.Collective(r.Collective),
		Algorithm:    r.Algorithm,
		Distribution: r.Distribution,
		Sources:      r.Sources,
		MsgBytes:     r.MsgBytes,
	}
}

// EventCounts summarizes a traced run's observability stream.
type EventCounts struct {
	Sends    int   `json:"sends"`
	Recvs    int   `json:"recvs"`
	Waits    int   `json:"waits"`
	Barriers int   `json:"barriers"`
	Faults   int   `json:"faults"`
	WaitNs   int64 `json:"wait_ns"`
}

// BroadcastResponse is the success body of POST /v1/broadcast.
type BroadcastResponse struct {
	// Key names the warm session that served the request.
	Key string `json:"key"`
	// Collective is the normalized pattern the run executed ("Broadcast"
	// when the request left it out).
	Collective string `json:"collective"`
	// Algorithm echoes the request (the planner's pick stays "Auto").
	Algorithm string `json:"algorithm"`
	// ElapsedNs is the broadcast duration (simulated makespan under the
	// sim engine, wall clock otherwise); ServerNs is the total
	// server-side handling time including pool queueing.
	ElapsedNs int64 `json:"elapsed_ns"`
	ServerNs  int64 `json:"server_ns"`
	// Runs/Failures/Bytes/Reconnects snapshot the serving session's
	// aggregate stats after this run.
	Runs       int   `json:"runs"`
	Failures   int   `json:"failures"`
	Bytes      int64 `json:"bytes"`
	Reconnects int   `json:"reconnects"`
	// Events is set when the request asked for tracing.
	Events *EventCounts `json:"events,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// Key is set when the failure happened on a pooled session.
	Key string `json:"key,omitempty"`
}

// SessionInfo describes one pool entry in GET /v1/sessions.
type SessionInfo struct {
	Key        string `json:"key"`
	Runs       int    `json:"runs"`
	Failures   int    `json:"failures"`
	Bytes      int64  `json:"bytes"`
	Reconnects int    `json:"reconnects"`
	// Busy reports whether a request currently holds (or queues on) the
	// session; IdleMs is the time since it was last touched.
	Busy   bool  `json:"busy"`
	IdleMs int64 `json:"idle_ms"`
}

// SessionsResponse is the body of GET /v1/sessions.
type SessionsResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// Requests counts admitted broadcast requests; Completed those that
	// returned a result; Failed those whose run errored; Rejected those
	// turned away by backpressure (quota, in-flight cap, drain, pool
	// full).
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
	InFlight  int   `json:"in_flight"`
	// Sessions/Opens/Evictions describe the pool: warm entries now,
	// sessions opened since start, idle/LRU evictions since start.
	Sessions  int   `json:"sessions"`
	Opens     int64 `json:"opens"`
	Evictions int64 `json:"evictions"`
	Draining  bool  `json:"draining"`
	UptimeMs  int64 `json:"uptime_ms"`
	// TenantRequests counts admitted requests per tenant.
	TenantRequests map[string]int64 `json:"tenant_requests,omitempty"`
	// Latency quantiles over the most recent completed broadcasts
	// (server-side handling time, including queueing).
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// PingResponse is the body of GET /v1/ping.
type PingResponse struct {
	OK       bool  `json:"ok"`
	Draining bool  `json:"draining"`
	UptimeMs int64 `json:"uptime_ms"`
}

// ShutdownResponse is the body of POST /v1/shutdown; the drain continues
// in the background after it is sent.
type ShutdownResponse struct {
	Draining bool `json:"draining"`
}

// runOptions builds the engine options for one request (call after
// normalize). defaultRecv bounds runs that did not set their own receive
// deadline.
func (r *BroadcastRequest) runOptions(defaultRecv time.Duration) stpbcast.RunOptions {
	opts := stpbcast.RunOptions{
		RecvTimeout: time.Duration(r.RecvTimeoutMs) * time.Millisecond,
		RunTimeout:  time.Duration(r.RunTimeoutMs) * time.Millisecond,
	}
	if opts.RecvTimeout == 0 && r.Engine != "sim" {
		opts.RecvTimeout = defaultRecv
	}
	if r.Kill != nil {
		opts.Faults = &stpbcast.FaultPlan{
			Kills: []stpbcast.FaultKill{{Rank: r.Kill.Rank, Op: r.Kill.Op}},
		}
	}
	return opts
}
