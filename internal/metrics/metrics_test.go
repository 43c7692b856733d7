package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"netmaster/internal/simtime"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second Counter call returned a different handle")
	}
	g := r.Gauge("g")
	g.Set(1.5)
	g.Set(-2.25)
	if got := g.Value(); got != -2.25 {
		t.Fatalf("gauge = %v, want -2.25", got)
	}
}

func TestNilHandlesAndRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", []float64{1})
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(0.5)
	r.Advance(100)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if r.SimTime() != 0 || r.Names() != nil {
		t.Fatal("nil registry must read empty")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 50, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+2+10+50+1000; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	s := r.Snapshot()
	hs := s.Histograms["lat"]
	// Cumulative: ≤1 → {0.5, 1}, ≤10 → +{2, 10}, ≤100 → +{50}.
	if want := []int64{2, 4, 5}; len(hs.Buckets) != 3 || hs.Buckets[0] != want[0] || hs.Buckets[1] != want[1] || hs.Buckets[2] != want[2] {
		t.Fatalf("buckets = %v, want %v", hs.Buckets, want)
	}
	if hs.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", hs.Overflow)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds accepted")
		}
	}()
	NewRegistry().Histogram("bad", []float64{2, 1})
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("name")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge reusing a counter name accepted")
		}
	}()
	r.Gauge("name")
}

func TestAdvanceKeepsMaximum(t *testing.T) {
	r := NewRegistry()
	r.Advance(50)
	r.Advance(20)
	r.Advance(80)
	if got := r.SimTime(); got != 80 {
		t.Fatalf("sim time = %v, want 80", got)
	}
	if got := r.Snapshot().SimTime; got != simtime.Instant(80) {
		t.Fatalf("snapshot sim time = %v, want 80", got)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b_total").Add(2)
		r.Counter("a_total").Add(1)
		r.Gauge("z").Set(0.5)
		r.Histogram("h", []float64{1, 2}).Observe(1.5)
		r.Advance(1234)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("identical registries exported different JSON")
	}
	var s Snapshot
	if err := json.Unmarshal(b1.Bytes(), &s); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	if s.Counters["a_total"] != 1 || s.Counters["b_total"] != 2 {
		t.Fatalf("round-tripped counters wrong: %v", s.Counters)
	}
}

func TestExpvarString(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	out := r.String()
	if !json.Valid([]byte(out)) {
		t.Fatalf("String() is not valid JSON: %s", out)
	}
	if !strings.Contains(out, `"x":1`) {
		t.Fatalf("String() missing counter: %s", out)
	}
}

func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", nil)
	r.Counter("c")
	r.Gauge("g")
	got := r.Names()
	if len(got) != 3 || got[0] != "c" || got[1] != "g" || got[2] != "h" {
		t.Fatalf("names = %v, want [c g h]", got)
	}
}

func TestDefaultRegistryShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() not stable")
	}
	Default().Counter("metrics_test_default_probe").Inc()
	if Default().Snapshot().Counters["metrics_test_default_probe"] < 1 {
		t.Fatal("default registry did not record")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("d", []float64{10, 100})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
				r.Advance(simtime.Instant(i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if r.SimTime() != 999 {
		t.Fatalf("sim time = %v, want 999", r.SimTime())
	}
}

// TestBucketQuantile covers the estimator's branches on one 100-sample
// layout (50 ≤ 10, 40 in (10,100], 10 in (100,1000]) and its edges.
func TestBucketQuantile(t *testing.T) {
	bounds := []float64{10, 100, 1000}
	cum := []int64{50, 90, 100}
	cases := []struct {
		name   string
		bounds []float64
		cum    []int64
		count  int64
		q      float64
		want   float64
	}{
		{"first bucket from 0", bounds, cum, 100, 0.25, 5},
		{"bucket edge", bounds, cum, 100, 0.9, 100},
		{"interpolated", bounds, cum, 100, 0.95, 550},
		{"q above 1 clamps", bounds, cum, 100, 7, 1000},
		{"q below 0 clamps", bounds, cum, 100, -1, 0},
		{"overflow clamps to last bound", bounds, []int64{0, 0, 0}, 5, 0.5, 1000},
		{"empty count", bounds, cum, 0, 0.5, 0},
		{"rank 0 on an empty first bucket", []float64{1, 2}, []int64{0, 3}, 3, 0, 1},
		{"non-positive first bound", []float64{0, 10}, []int64{4, 4}, 4, 0.5, 0},
		{"no bounds", nil, nil, 3, 0.5, 0},
	}
	for _, tc := range cases {
		if got := BucketQuantile(tc.bounds, tc.cum, tc.count, tc.q); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}
