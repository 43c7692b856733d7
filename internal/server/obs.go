// Per-request observability shared by the daemon and the router: RED
// instrumentation handles per endpoint (rate, errors by class,
// duration, in-flight), the structured access-log line, the
// slow-request line, and the /debug/requests ring dump. The request
// spine in front.go drives these; everything here is
// observational — response bodies never change, so the handler goldens
// stay byte-identical.
package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"netmaster/internal/metrics"
	"netmaster/internal/reqtrace"
)

// endpointObs is one endpoint's RED instrumentation: request and
// error-class counters, a latency histogram on the shared
// LatencyBuckets (so per-shard series merge bucket-exactly through the
// router's fold), and an in-flight gauge. Series are named
// <role>_http_<endpoint>_{requests_total,errors_4xx_total,
// errors_5xx_total,latency_ms,in_flight}.
type endpointObs struct {
	requests *metrics.Counter
	err4xx   *metrics.Counter
	err5xx   *metrics.Counter
	latency  *metrics.Histogram
	inflight *metrics.Gauge
	n        atomic.Int64
}

// newEndpointObs registers (or resolves) the endpoint's series in reg.
// rolePrefix is "server_" or "router_"; a nil registry yields no-op
// handles.
func newEndpointObs(reg *metrics.Registry, rolePrefix, endpoint string) *endpointObs {
	base := rolePrefix + "http_" + endpoint + "_"
	return &endpointObs{
		requests: reg.Counter(base + "requests_total"),
		err4xx:   reg.Counter(base + "errors_4xx_total"),
		err5xx:   reg.Counter(base + "errors_5xx_total"),
		latency:  reg.Histogram(base+"latency_ms", LatencyBuckets),
		inflight: reg.Gauge(base + "in_flight"),
	}
}

// enter/exit track the endpoint's admitted in-flight count.
func (e *endpointObs) enter() { e.inflight.Set(float64(e.n.Add(1))) }
func (e *endpointObs) exit()  { e.inflight.Set(float64(e.n.Add(-1))) }

// finish records the answered request: duration always, an error-class
// counter for non-2xx statuses.
func (e *endpointObs) finish(status int, totalMS float64) {
	e.latency.Observe(totalMS)
	switch {
	case status >= 500:
		e.err5xx.Inc()
	case status >= 400:
		e.err4xx.Inc()
	}
}

// durMS converts a duration to fractional milliseconds.
func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// accessLine is the structured access-log schema, one JSON line per
// request. The shape is pinned by TestGoldenAccessLog; extend it
// additively. ms is the request's total wall time (admission included);
// queue_wait_ms isolates the pre-handler share of it.
type accessLine struct {
	Role        string  `json:"role,omitempty"` // "router"; absent on the daemon
	Method      string  `json:"method"`
	Path        string  `json:"path"`
	Status      int     `json:"status"`
	Bytes       int     `json:"bytes"`
	Millis      int64   `json:"ms"`
	InFlight    int64   `json:"in_flight"`
	RequestID   string  `json:"request_id"`
	Shard       string  `json:"shard,omitempty"` // routed backend, router only
	Cache       string  `json:"cache,omitempty"` // profile-cache disposition
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

// slowLine wraps a span for the slow-request log: one JSON line keyed
// "slow_request", emitted when a request's total latency reaches the
// configured threshold.
type slowLine struct {
	SlowRequest reqtrace.Span `json:"slow_request"`
}

// emitLog marshals one log line to w; nil w disables logging and
// marshal failures are dropped (logging must never fail a request).
func emitLog(w io.Writer, line any) {
	if w == nil {
		return
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	w.Write(append(b, '\n'))
}

// debugRecentDefault bounds the recent-span dump when ?n= is absent;
// the slowest set is small enough to always dump whole.
const debugRecentDefault = 64

// handleDebugRequests serves GET /debug/requests for either role's
// ring: the most recent spans (up to ?n=, default 64) and the retained
// slowest. Spans carry request metadata only — no bodies — so the dump
// is redaction-safe. The endpoint bypasses the limited spine: reading
// the ring must not append to it.
func handleDebugRequests(ring *reqtrace.Ring) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := debugRecentDefault
		if v := r.URL.Query().Get("n"); v != "" {
			p, err := strconv.Atoi(v)
			if err != nil || p <= 0 {
				writeError(w, &apiError{Code: http.StatusBadRequest, Kind: "bad_request",
					Msg: "n must be a positive integer"})
				return
			}
			n = p
		}
		resp := DebugRequestsResponse{
			Capacity: ring.Capacity(),
			Total:    ring.Total(),
			Dropped:  ring.Dropped(),
			Recent:   ring.Recent(n),
			Slowest:  ring.Slowest(0),
		}
		if resp.Recent == nil {
			resp.Recent = []reqtrace.Span{}
		}
		if resp.Slowest == nil {
			resp.Slowest = []reqtrace.Span{}
		}
		writeJSON(w, http.StatusOK, resp)
	}
}
