package slo

import (
	"math"
	"sync"
	"testing"

	"netmaster/internal/cfgerr"
	"netmaster/internal/metrics"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string // "" means valid
	}{
		{"zero", Config{}, ""},
		{"both targets", Config{TargetP99MS: 500, TargetErrorRate: 0.01, Window: 100}, ""},
		{"negative p99", Config{TargetP99MS: -1}, "TargetP99MS"},
		{"error rate above one", Config{TargetErrorRate: 1.5}, "TargetErrorRate"},
		{"negative error rate", Config{TargetErrorRate: -0.1}, "TargetErrorRate"},
		{"negative window", Config{Window: -5}, "Window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !cfgerr.Is(err, "slo.Config", tc.field) {
				t.Fatalf("Validate() = %v, want field error on %s", err, tc.field)
			}
		})
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config should be disabled")
	}
	if !(Config{TargetP99MS: 100}).Enabled() {
		t.Error("p99 target should enable")
	}
	if !(Config{TargetErrorRate: 0.05}).Enabled() {
		t.Error("error-rate target should enable")
	}
}

func TestNewTrackerDisabled(t *testing.T) {
	tr := NewTracker(Config{}, metrics.NewRegistry(), "x_")
	if tr != nil {
		t.Fatal("disabled config should return a nil tracker")
	}
	tr.Observe(10, true) // must not panic
	if s := tr.Status(); s.Status != "" {
		t.Errorf("nil tracker Status = %+v, want zero", s)
	}
}

func TestTrackerBurnRates(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewTracker(Config{TargetP99MS: 100, TargetErrorRate: 0.1, Window: 10}, reg, "server_")

	// 8 fast successes, 1 slow success, 1 fast error.
	for i := 0; i < 8; i++ {
		tr.Observe(10, false)
	}
	tr.Observe(500, false)
	tr.Observe(10, true)

	s := tr.Status()
	// 1 error in a 10-window against a 0.1 budget → burn 1.0.
	if math.Abs(s.ErrorBurnRate-1.0) > 1e-9 {
		t.Errorf("ErrorBurnRate = %v, want 1.0", s.ErrorBurnRate)
	}
	// 1 breach in 10 (10%) against the 1% p99 allowance → burn 10.
	if math.Abs(s.LatencyBurnRate-10.0) > 1e-9 {
		t.Errorf("LatencyBurnRate = %v, want 10.0", s.LatencyBurnRate)
	}
	if s.Status != "burning" {
		t.Errorf("Status = %q, want burning", s.Status)
	}
	if s.Requests != 10 || s.Errors != 1 || s.LatencyBreaches != 1 {
		t.Errorf("totals = %d/%d/%d, want 10/1/1", s.Requests, s.Errors, s.LatencyBreaches)
	}

	// 10 more fast successes displace the window entirely: burns drop
	// to zero while lifetime totals keep counting.
	for i := 0; i < 10; i++ {
		tr.Observe(10, false)
	}
	s = tr.Status()
	if s.ErrorBurnRate != 0 || s.LatencyBurnRate != 0 {
		t.Errorf("burns after clean window = %v/%v, want 0/0", s.ErrorBurnRate, s.LatencyBurnRate)
	}
	if s.Status != "ok" {
		t.Errorf("Status = %q, want ok", s.Status)
	}
	if s.Requests != 20 || s.Errors != 1 || s.LatencyBreaches != 1 {
		t.Errorf("totals = %d/%d/%d, want 20/1/1", s.Requests, s.Errors, s.LatencyBreaches)
	}

	// The registry carries the exposition series.
	snap := reg.Snapshot()
	if snap.Counters["server_slo_requests_total"] != 20 {
		t.Errorf("slo_requests_total = %d, want 20", snap.Counters["server_slo_requests_total"])
	}
	if snap.Counters["server_slo_errors_total"] != 1 {
		t.Errorf("slo_errors_total = %d, want 1", snap.Counters["server_slo_errors_total"])
	}
	if snap.Counters["server_slo_latency_breaches_total"] != 1 {
		t.Errorf("slo_latency_breaches_total = %d, want 1", snap.Counters["server_slo_latency_breaches_total"])
	}
	if _, ok := snap.Gauges["server_slo_error_burn_rate"]; !ok {
		t.Error("missing server_slo_error_burn_rate gauge")
	}
	if _, ok := snap.Gauges["server_slo_latency_burn_rate"]; !ok {
		t.Error("missing server_slo_latency_burn_rate gauge")
	}
}

func TestTrackerDisabledObjectiveBurnsZero(t *testing.T) {
	// Only a latency target: error burn must stay 0 (not Inf) even
	// with a 100% error rate.
	tr := NewTracker(Config{TargetP99MS: 100, Window: 4}, metrics.NewRegistry(), "s_")
	for i := 0; i < 4; i++ {
		tr.Observe(10, true)
	}
	s := tr.Status()
	if s.ErrorBurnRate != 0 {
		t.Errorf("ErrorBurnRate = %v, want 0 when no error objective", s.ErrorBurnRate)
	}
	if math.IsInf(s.ErrorBurnRate, 0) || math.IsNaN(s.ErrorBurnRate) {
		t.Error("burn rate must stay JSON-encodable")
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(Config{TargetP99MS: 50, TargetErrorRate: 0.5, Window: 64}, metrics.NewRegistry(), "c_")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Observe(float64(i%100), i%7 == 0)
				tr.Status()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Status().Requests; got != 1600 {
		t.Errorf("Requests = %d, want 1600", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 100 observations: 50 ≤ 10, 40 in (10,100], 10 in (100,1000].
	hs := metrics.HistogramSnapshot{
		Bounds:  []float64{10, 100, 1000},
		Buckets: []int64{50, 90, 100},
		Count:   100,
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.5, 10},  // rank 50 lands exactly on the first bucket edge
		{0.9, 100}, // rank 90 on the second bucket edge
		{0.95, 550},
		{1.0, 1000},
	}
	for _, tc := range cases {
		got, err := HistogramQuantile(hs, tc.q)
		if err != nil {
			t.Fatalf("q=%v: %v", tc.q, err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	empty := metrics.HistogramSnapshot{Bounds: []float64{10}, Buckets: []int64{0}}
	if got, err := HistogramQuantile(empty, 0.99); err != nil || got != 0 {
		t.Errorf("empty histogram: got (%v,%v), want (0,nil)", got, err)
	}
	if _, err := HistogramQuantile(empty, 0); err == nil {
		t.Error("q=0 should error")
	}
	if _, err := HistogramQuantile(empty, 1.5); err == nil {
		t.Error("q>1 should error")
	}
	bad := metrics.HistogramSnapshot{Bounds: []float64{10, 20}, Buckets: []int64{1}, Count: 1}
	if _, err := HistogramQuantile(bad, 0.5); err == nil {
		t.Error("mismatched bounds/buckets should error")
	}
	// No bounds at all (what Registry.Histogram(name, nil) produces) is
	// malformed, not a panic.
	nobounds := metrics.HistogramSnapshot{Bounds: []float64{}, Buckets: []int64{}, Overflow: 3, Count: 3}
	if _, err := HistogramQuantile(nobounds, 0.5); err == nil {
		t.Error("empty bounds should error")
	}
	// All observations in overflow clamp to the last bound.
	over := metrics.HistogramSnapshot{Bounds: []float64{10, 20}, Buckets: []int64{0, 0}, Overflow: 5, Count: 5}
	if got, err := HistogramQuantile(over, 0.99); err != nil || got != 20 {
		t.Errorf("overflow clamp: got (%v,%v), want (20,nil)", got, err)
	}
	// First-bucket interpolation starts from 0.
	first := metrics.HistogramSnapshot{Bounds: []float64{100}, Buckets: []int64{10}, Count: 10}
	if got, _ := HistogramQuantile(first, 0.5); math.Abs(got-50) > 1e-9 {
		t.Errorf("first-bucket interpolation: got %v, want 50", got)
	}
}
