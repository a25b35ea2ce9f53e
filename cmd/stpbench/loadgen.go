package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
)

// loadSpec describes one load-generation run against a daemon: closed
// loop (Concurrency workers each issuing Requests/Concurrency-ish
// back-to-back requests) when Rate is zero, open loop (fixed-rate
// arrivals for Duration, each request on its own goroutine) otherwise.
type loadSpec struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7411".
	BaseURL string
	// Request is the broadcast issued repeatedly.
	Request daemon.BroadcastRequest
	// Concurrency is the closed-loop worker count (default 1).
	Concurrency int
	// Requests is the closed-loop total request count (default 100).
	Requests int
	// Rate, when positive, switches to an open loop issuing Rate
	// arrivals per second for Duration.
	Rate float64
	// Duration bounds the open loop (default 5s; closed loop ignores it).
	Duration time.Duration
}

// loadReport is the outcome of one load run. Latencies are end-to-end
// client-observed times of successful requests.
type loadReport struct {
	Mode        string  `json:"mode"` // "closed" or "open"
	Concurrency int     `json:"concurrency,omitempty"`
	RatePerSec  float64 `json:"rate_per_s,omitempty"`
	Requests    int     `json:"requests"`
	Completed   int     `json:"completed"`
	// Rejected counts 429/503 backpressure replies; Errors everything
	// else that failed (transport errors, 4xx/5xx).
	Rejected  int     `json:"rejected"`
	Errors    int     `json:"errors"`
	ElapsedMs float64 `json:"elapsed_ms"`
	ReqPerSec float64 `json:"req_per_s"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// String renders the report as one aligned human-readable line.
func (r *loadReport) String() string {
	shape := fmt.Sprintf("conc=%d", r.Concurrency)
	if r.Mode == "open" {
		shape = fmt.Sprintf("rate=%.0f/s", r.RatePerSec)
	}
	return fmt.Sprintf("%-6s %-10s req=%-5d ok=%-5d rejected=%-4d errors=%-4d %8.1f req/s   p50 %7.2f ms   p95 %7.2f ms   p99 %7.2f ms",
		r.Mode, shape, r.Requests, r.Completed, r.Rejected, r.Errors, r.ReqPerSec, r.P50Ms, r.P95Ms, r.P99Ms)
}

// runLoad executes the load run and aggregates latency quantiles.
func runLoad(spec loadSpec) (*loadReport, error) {
	if spec.Concurrency <= 0 {
		spec.Concurrency = 1
	}
	if spec.Requests <= 0 {
		spec.Requests = 100
	}
	if spec.Duration <= 0 {
		spec.Duration = 5 * time.Second
	}
	body, err := json.Marshal(spec.Request)
	if err != nil {
		return nil, err
	}
	url := spec.BaseURL + "/v1/broadcast"
	client := &http.Client{Timeout: 2 * time.Minute}

	var mu sync.Mutex
	var lats []time.Duration
	report := &loadReport{Concurrency: spec.Concurrency}
	issue := func() {
		t0 := time.Now()
		ok, rejected := doBroadcast(client, url, body)
		lat := time.Since(t0)
		mu.Lock()
		switch {
		case ok:
			report.Completed++
			lats = append(lats, lat)
		case rejected:
			report.Rejected++
		default:
			report.Errors++
		}
		mu.Unlock()
	}

	start := time.Now()
	if spec.Rate > 0 {
		report.Mode = "open"
		report.RatePerSec = spec.Rate
		report.Concurrency = 0
		interval := time.Duration(float64(time.Second) / spec.Rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		var wg sync.WaitGroup
		deadline := start.Add(spec.Duration)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		n := 0
		for now := start; now.Before(deadline); now = <-tick.C {
			wg.Add(1)
			n++
			go func() {
				defer wg.Done()
				issue()
			}()
		}
		wg.Wait()
		report.Requests = n
	} else {
		report.Mode = "closed"
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < spec.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if int(next.Add(1)) > spec.Requests {
						return
					}
					issue()
				}
			}()
		}
		wg.Wait()
		report.Requests = spec.Requests
	}
	elapsed := time.Since(start)
	report.ElapsedMs = float64(elapsed.Nanoseconds()) / 1e6
	if elapsed > 0 {
		report.ReqPerSec = float64(report.Completed) / elapsed.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	report.P50Ms = quantile(lats, 0.50)
	report.P95Ms = quantile(lats, 0.95)
	report.P99Ms = quantile(lats, 0.99)
	return report, nil
}

// doBroadcast issues one request; ok reports success, rejected a
// backpressure turn-away (429/503).
func doBroadcast(client *http.Client, url string, body []byte) (ok, rejected bool) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	var out daemon.BroadcastResponse
	if resp.StatusCode == http.StatusOK {
		if json.NewDecoder(resp.Body).Decode(&out) != nil {
			return false, false
		}
		return true, false
	}
	return false, resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
}

// quantile returns the q-quantile of sorted latencies in milliseconds.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(max(int(q*float64(len(sorted))+0.5)-1, 0), len(sorted)-1)
	return float64(sorted[i].Nanoseconds()) / 1e6
}
