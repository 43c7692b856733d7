// Package metrics is the simulation's telemetry layer: named counters,
// gauges and fixed-bucket histograms that the online middleware, the
// scheduler and the evaluation sweeps update as they run, with a
// sim-time-stamped snapshot and JSON export for offline analysis.
//
// Design constraints, in order:
//
//   - Zero allocations on the hot path. Instrumented code holds typed
//     handles (*Counter, *Gauge, *Histogram) resolved once at set-up;
//     Add/Set/Observe touch only atomics.
//   - Safe under the internal/parallel worker pool. Every update is a
//     single atomic operation (or a CAS loop for float sums), so
//     concurrent per-slot knapsack solves and eval fan-outs need no
//     locks.
//   - Nil-tolerant. Methods on a nil handle are no-ops, so a component
//     wired without a Registry pays only a nil check — the replay hot
//     path keeps its benchmark profile when observability is off.
//   - Deterministic export. Snapshots marshal with sorted keys
//     (encoding/json map ordering), so two identical runs produce
//     byte-identical JSON — the property the golden-file tests pin.
//
// Time is simulation time, not wall time: Registry.Advance records the
// high-water mark of the instants the instrumented code has seen, and
// the snapshot carries it, so a metrics file is self-describing about
// how much simulated history it covers.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"netmaster/internal/simtime"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n; nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one; nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero for a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v; nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value; zero for a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: counts per upper bound plus
// an overflow bucket, with total count and sum. Buckets are cumulative
// in the snapshot (observation ≤ bound), prometheus-style.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

// Observe records one value; nil-safe and allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~12) and the branch
	// predictor beats a binary search at that size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations; zero for a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations; zero for a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry holds named metrics. Handle resolution (Counter, Gauge,
// Histogram) takes a lock and may allocate; updates through the returned
// handles never do.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	simTime atomic.Int64 // high-water simtime.Instant seen by Advance
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry library users and the
// eval hooks share when no explicit registry is wired.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		r.checkFresh(name, "counter")
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		r.checkFresh(name, "gauge")
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds on first use (later calls reuse the existing
// buckets and ignore the bounds argument). A nil registry returns a nil
// (no-op) handle.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		r.checkFresh(name, "histogram")
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %q bounds not ascending at %d", name, i))
			}
		}
		h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// checkFresh panics when a name is already registered under another
// metric kind — always a programming error, like expvar.Publish.
func (r *Registry) checkFresh(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a counter, wanted %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge, wanted %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram, wanted %s", name, kind))
	}
}

// Advance records t as the latest simulation instant observed, keeping
// the maximum; nil-safe and allocation-free.
func (r *Registry) Advance(t simtime.Instant) {
	if r == nil {
		return
	}
	for {
		old := r.simTime.Load()
		if int64(t) <= old {
			return
		}
		if r.simTime.CompareAndSwap(old, int64(t)) {
			return
		}
	}
}

// SimTime returns the high-water simulation instant seen by Advance.
func (r *Registry) SimTime() simtime.Instant {
	if r == nil {
		return 0
	}
	return simtime.Instant(r.simTime.Load())
}

// HistogramSnapshot is one histogram's frozen state. Buckets are
// cumulative counts of observations ≤ the corresponding bound; Overflow
// counts observations above the last bound.
type HistogramSnapshot struct {
	Bounds   []float64 `json:"bounds"`
	Buckets  []int64   `json:"buckets"`
	Overflow int64     `json:"overflow"`
	Count    int64     `json:"count"`
	Sum      float64   `json:"sum"`
}

// BucketQuantile estimates the q-quantile of a cumulative-bucket
// histogram (cum[i] observations ≤ bounds[i], count in all) by linear
// interpolation within the bucket holding rank q·count,
// prometheus-style: the estimate depends only on the integer counts and
// the bounds, and lies within the true quantile's bucket. The first
// bucket interpolates up from 0, or is its bound when that bound is not
// positive; ranks landing in the overflow bucket clamp to the last
// bound. It returns 0 when count ≤ 0 or there are no bounds, clamps q
// into [0, 1], and expects len(cum) == len(bounds). It is the one
// histogram estimator: fleet exports and scraped-snapshot SLO reads
// both call it.
func BucketQuantile(bounds []float64, cum []int64, count int64, q float64) float64 {
	if count <= 0 || len(bounds) == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * float64(count)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		var prev int64
		lower := 0.0
		if i > 0 {
			prev = cum[i-1]
			lower = bounds[i-1]
		} else if bounds[0] <= 0 {
			// No finite lower edge for the first bucket of a
			// non-positive bound: the bound itself is the estimate.
			return bounds[0]
		}
		inBucket := c - prev
		if inBucket <= 0 {
			return bounds[i]
		}
		return lower + (bounds[i]-lower)*(rank-float64(prev))/float64(inBucket)
	}
	return bounds[len(bounds)-1] // in the overflow bucket: clamp
}

// Snapshot is a frozen, JSON-serialisable view of a registry. Map keys
// marshal sorted, so identical runs export identical bytes.
type Snapshot struct {
	SimTime    simtime.Instant              `json:"sim_time"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current state. Concurrent updates
// during the call land in either the snapshot or the next one; each
// individual metric is read atomically.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	s.SimTime = r.SimTime()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]int64, len(h.bounds)),
			Count:   h.Count(),
			Sum:     h.Sum(),
		}
		var cum int64
		for i := range h.bounds {
			cum += h.buckets[i].Load()
			hs.Buckets[i] = cum
		}
		hs.Overflow = h.buckets[len(h.bounds)].Load()
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON snapshots the registry and writes it as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}

// String renders the snapshot as compact JSON, satisfying expvar.Var so
// a registry can be published on /debug/vars for long soak runs.
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return fmt.Sprintf("{%q:%q}", "error", err.Error())
	}
	return string(b)
}

// Names returns every registered metric name, sorted, for audits.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.histograms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
