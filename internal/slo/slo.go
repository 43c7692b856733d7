// Package slo evaluates the serve tier's service-level objectives
// online: a latency target (p99 ≤ N ms) and an availability target
// (error rate ≤ r), tracked over a trailing window of requests and
// expressed as *burn rates* — how fast the error budget is being spent.
//
// Burn rate is the standard SRE framing: a target of p99 ≤ N ms grants
// a budget of 1% of requests above N ms; a windowed breach fraction of
// 2% is a burn rate of 2.0 (spending budget twice as fast as allowed,
// alarm), 0.5 means half the budget (healthy). Likewise an error-rate
// target of r grants a budget of r 5xx responses per request. Burn > 1
// means the objective is being missed over the current window.
//
// The tracker is count-windowed, not time-windowed: the last Window
// requests vote. That keeps evaluation allocation-free and makes tests
// and the bench deterministic — no wall-clock bucketing — at the cost
// of a window that covers more wall time under light load, which is the
// conservative direction (old breaches linger until traffic displaces
// them).
//
// The package also carries the histogram-quantile estimator the bench
// uses to turn scraped cumulative-bucket snapshots into p50/p90/p99,
// so server-side and client-side latency report through one formula.
package slo

import (
	"fmt"
	"sync"

	"netmaster/internal/cfgerr"
	"netmaster/internal/metrics"
)

// DefaultWindow is the trailing request-count window when none is set.
const DefaultWindow = 1000

// latencyBudget is the allowed fraction of requests above the p99
// target — by definition of p99, 1%.
const latencyBudget = 0.01

// Config sets the objectives. The zero value disables tracking.
type Config struct {
	// TargetP99MS is the latency objective: the 99th percentile of
	// request latency should stay at or below this many milliseconds.
	// Zero disables the latency objective.
	TargetP99MS float64
	// TargetErrorRate is the availability objective: the fraction of
	// requests answered 5xx should stay at or below this. Zero disables
	// the error objective.
	TargetErrorRate float64
	// Window is the trailing request count the burn rates are computed
	// over; DefaultWindow when zero.
	Window int
}

// Enabled reports whether any objective is set.
func (c Config) Enabled() bool {
	return c.TargetP99MS > 0 || c.TargetErrorRate > 0
}

// Validate rejects malformed objectives with typed field errors.
func (c Config) Validate() error {
	var errs cfgerr.Errors
	if c.TargetP99MS < 0 {
		errs = append(errs, cfgerr.New("slo.Config", "TargetP99MS", c.TargetP99MS, "must be non-negative"))
	}
	if c.TargetErrorRate < 0 || c.TargetErrorRate > 1 {
		errs = append(errs, cfgerr.New("slo.Config", "TargetErrorRate", c.TargetErrorRate, "must be in [0,1]"))
	}
	if c.Window < 0 {
		errs = append(errs, cfgerr.New("slo.Config", "Window", c.Window, "must be non-negative"))
	}
	return errs.Err()
}

// Status is the evaluator's wire form, embedded in /healthz responses
// and scraped by the bench.
type Status struct {
	// Status is "ok", or "burning" when any burn rate exceeds 1.
	Status string `json:"status"`
	// TargetP99MS and TargetErrorRate echo the configured objectives.
	TargetP99MS     float64 `json:"target_p99_ms,omitempty"`
	TargetErrorRate float64 `json:"target_error_rate,omitempty"`
	// Window is the trailing request count the burn rates cover.
	Window int `json:"window"`
	// Requests, Errors and LatencyBreaches are lifetime totals.
	Requests        int64 `json:"requests"`
	Errors          int64 `json:"errors"`
	LatencyBreaches int64 `json:"latency_breaches"`
	// ErrorBurnRate and LatencyBurnRate are the windowed budget spend
	// rates; > 1 means the objective is currently being missed.
	ErrorBurnRate   float64 `json:"error_burn_rate"`
	LatencyBurnRate float64 `json:"latency_burn_rate"`
}

// Tracker observes request outcomes and maintains burn rates. Safe for
// concurrent use; a nil *Tracker ignores observations.
type Tracker struct {
	cfg Config

	mu      sync.Mutex
	ring    []uint8 // bit 0: error, bit 1: latency breach
	start   int
	n       int
	winErr  int // errors within the window
	winSlow int // latency breaches within the window

	// Lifetime totals, kept by the tracker itself so Status works even
	// on a nil (no-op) metrics registry.
	totalReqs     int64
	totalErrs     int64
	totalBreaches int64

	// /metrics exposition handles mirroring the totals and burn rates.
	requests *metrics.Counter
	errors   *metrics.Counter
	breaches *metrics.Counter
	errBurn  *metrics.Gauge
	latBurn  *metrics.Gauge
}

// NewTracker builds a tracker for cfg, registering its exposition
// series in reg under prefix (e.g. "server_" → server_slo_requests_total,
// server_slo_error_burn_rate, …). Returns nil when cfg has no
// objectives — callers observe through the nil tracker for free.
func NewTracker(cfg Config, reg *metrics.Registry, prefix string) *Tracker {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	return &Tracker{
		cfg:      cfg,
		ring:     make([]uint8, cfg.Window),
		requests: reg.Counter(prefix + "slo_requests_total"),
		errors:   reg.Counter(prefix + "slo_errors_total"),
		breaches: reg.Counter(prefix + "slo_latency_breaches_total"),
		errBurn:  reg.Gauge(prefix + "slo_error_burn_rate"),
		latBurn:  reg.Gauge(prefix + "slo_latency_burn_rate"),
	}
}

// Observe records one finished request: its total latency and whether
// it was answered with a server error (status ≥ 500). Nil-safe.
func (t *Tracker) Observe(latencyMS float64, isError bool) {
	if t == nil {
		return
	}
	var bits uint8
	if isError {
		bits |= 1
	}
	if t.cfg.TargetP99MS > 0 && latencyMS > t.cfg.TargetP99MS {
		bits |= 2
	}

	t.mu.Lock()
	if t.n == len(t.ring) {
		old := t.ring[t.start]
		t.winErr -= int(old & 1)
		t.winSlow -= int(old >> 1 & 1)
		t.ring[t.start] = bits
		t.start = (t.start + 1) % len(t.ring)
	} else {
		t.ring[(t.start+t.n)%len(t.ring)] = bits
		t.n++
	}
	t.winErr += int(bits & 1)
	t.winSlow += int(bits >> 1 & 1)
	t.totalReqs++
	t.totalErrs += int64(bits & 1)
	t.totalBreaches += int64(bits >> 1 & 1)
	errRate := float64(t.winErr) / float64(t.n)
	slowRate := float64(t.winSlow) / float64(t.n)
	t.mu.Unlock()

	t.requests.Inc()
	if isError {
		t.errors.Inc()
	}
	if bits&2 != 0 {
		t.breaches.Inc()
	}
	t.errBurn.Set(t.errorBurn(errRate))
	t.latBurn.Set(t.latencyBurn(slowRate))
}

// errorBurn converts a windowed 5xx rate into budget spend. A disabled
// error objective burns nothing (0, not +Inf — Status must stay
// JSON-encodable).
func (t *Tracker) errorBurn(errRate float64) float64 {
	if t.cfg.TargetErrorRate <= 0 {
		return 0
	}
	return errRate / t.cfg.TargetErrorRate
}

// latencyBurn converts a windowed breach rate into budget spend against
// the fixed 1% p99 allowance.
func (t *Tracker) latencyBurn(slowRate float64) float64 {
	if t.cfg.TargetP99MS <= 0 {
		return 0
	}
	return slowRate / latencyBudget
}

// Status freezes the tracker's current view. Nil-safe: a nil tracker
// returns a zero Status with empty Status string, which callers use to
// omit the block entirely.
func (t *Tracker) Status() Status {
	if t == nil {
		return Status{}
	}
	t.mu.Lock()
	var errRate, slowRate float64
	if t.n > 0 {
		errRate = float64(t.winErr) / float64(t.n)
		slowRate = float64(t.winSlow) / float64(t.n)
	}
	reqs, errs, breaches := t.totalReqs, t.totalErrs, t.totalBreaches
	t.mu.Unlock()
	s := Status{
		Status:          "ok",
		TargetP99MS:     t.cfg.TargetP99MS,
		TargetErrorRate: t.cfg.TargetErrorRate,
		Window:          len(t.ring),
		Requests:        reqs,
		Errors:          errs,
		LatencyBreaches: breaches,
		ErrorBurnRate:   t.errorBurn(errRate),
		LatencyBurnRate: t.latencyBurn(slowRate),
	}
	if s.ErrorBurnRate > 1 || s.LatencyBurnRate > 1 {
		s.Status = "burning"
	}
	return s
}

// HistogramQuantile estimates the q-quantile (0 < q ≤ 1) of a scraped
// cumulative-bucket histogram snapshot with metrics.BucketQuantile:
// find the bucket where the cumulative count crosses rank q·count and
// interpolate linearly within it. Observations above the last bound
// clamp to that bound — the estimator cannot see past its buckets, so
// the caller should size bounds above the target SLO. Returns 0 for an
// empty histogram and an error for a malformed q or snapshot, including
// one with no bounds.
func HistogramQuantile(hs metrics.HistogramSnapshot, q float64) (float64, error) {
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("slo: quantile %v out of (0,1]", q)
	}
	if len(hs.Bounds) == 0 {
		return 0, fmt.Errorf("slo: snapshot has no bucket bounds")
	}
	if len(hs.Buckets) != len(hs.Bounds) {
		return 0, fmt.Errorf("slo: snapshot has %d buckets for %d bounds", len(hs.Buckets), len(hs.Bounds))
	}
	return metrics.BucketQuantile(hs.Bounds, hs.Buckets, hs.Count, q), nil
}
