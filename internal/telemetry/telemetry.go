// Package telemetry rolls per-device metrics snapshots up into fleet
// aggregates. A single simulated device exports a metrics.Snapshot; a
// cohort run produces one per device; this package merges them into one
// FleetSnapshot — counters summed, gauges reduced to min/mean/max,
// histograms merged bucket-wise with deterministic quantile estimates —
// the population-level view the paper's headline numbers are stated in.
//
// The merge is *exactly* associative and order-insensitive, which is the
// property that lets sharded cohorts roll up in parallel without
// changing the answer:
//
//   - Integer state (counter values, histogram bucket counts) merges by
//     int64 addition — exact in any order.
//   - Float state (gauge values, histogram sums) is never added during a
//     merge. It is kept per device, merges as map union, and is folded
//     in sorted device-ID order only at Export time — so the float
//     additions happen in one canonical order no matter how the
//     aggregates were combined.
//
// Two aggregates built from the same device set therefore export
// byte-identical JSON regardless of aggregation order or sharding, a
// property the package's tests pin with random permutations and
// association trees.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"netmaster/internal/metrics"
	"netmaster/internal/parallel"
	"netmaster/internal/simtime"
)

// Device is one device's contribution to the fleet: a stable identifier
// (the cohort user ID in the simulators) and its exported snapshot.
type Device struct {
	ID       string
	Snapshot metrics.Snapshot
}

// histDev is one device's share of a histogram: bucket counts are stored
// non-cumulative so device merging is plain addition per bucket.
type histDev struct {
	buckets  []int64
	overflow int64
	count    int64
	sum      float64
}

// histAgg is a histogram's merge state: the common bounds plus each
// device's contribution.
type histAgg struct {
	bounds    []float64
	perDevice map[string]histDev
}

// Agg is a mergeable fleet aggregate. The zero value is not usable;
// build one with Aggregate (possibly over zero devices) and combine with
// Merge. All internal state is keyed by device ID, so combining two
// aggregates is map union — exactly associative and commutative.
type Agg struct {
	devices  map[string]bool
	simTimes map[string]simtime.Instant
	counters map[string]map[string]int64
	gauges   map[string]map[string]float64
	hists    map[string]*histAgg
}

// NewAgg returns an empty aggregate.
func NewAgg() *Agg {
	return &Agg{
		devices:  map[string]bool{},
		simTimes: map[string]simtime.Instant{},
		counters: map[string]map[string]int64{},
		gauges:   map[string]map[string]float64{},
		hists:    map[string]*histAgg{},
	}
}

// Aggregate folds the given device snapshots into a fresh aggregate.
// Device IDs must be non-empty and unique; histograms sharing a name
// must share bounds across devices.
func Aggregate(devs ...Device) (*Agg, error) {
	a := NewAgg()
	for _, d := range devs {
		if err := a.Add(d); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Add folds one device snapshot into the aggregate.
func (a *Agg) Add(d Device) error {
	if d.ID == "" {
		return fmt.Errorf("telemetry: device with empty ID")
	}
	if a.devices[d.ID] {
		return fmt.Errorf("telemetry: device %q aggregated twice", d.ID)
	}
	a.devices[d.ID] = true
	a.simTimes[d.ID] = d.Snapshot.SimTime
	for name, v := range d.Snapshot.Counters {
		m := a.counters[name]
		if m == nil {
			m = map[string]int64{}
			a.counters[name] = m
		}
		m[d.ID] = v
	}
	for name, v := range d.Snapshot.Gauges {
		m := a.gauges[name]
		if m == nil {
			m = map[string]float64{}
			a.gauges[name] = m
		}
		m[d.ID] = v
	}
	for name, hs := range d.Snapshot.Histograms {
		h := a.hists[name]
		if h == nil {
			h = &histAgg{
				bounds:    append([]float64(nil), hs.Bounds...),
				perDevice: map[string]histDev{},
			}
			a.hists[name] = h
		}
		if !boundsEqual(h.bounds, hs.Bounds) {
			return fmt.Errorf("telemetry: histogram %q bounds differ on device %q", name, d.ID)
		}
		if len(hs.Buckets) != len(hs.Bounds) {
			return fmt.Errorf("telemetry: histogram %q malformed on device %q: %d buckets for %d bounds",
				name, d.ID, len(hs.Buckets), len(hs.Bounds))
		}
		// Snapshot buckets are cumulative; store per-bucket deltas so
		// merging devices is plain integer addition.
		dev := histDev{
			buckets:  make([]int64, len(hs.Buckets)),
			overflow: hs.Overflow,
			count:    hs.Count,
			sum:      hs.Sum,
		}
		var prev int64
		for i, cum := range hs.Buckets {
			dev.buckets[i] = cum - prev
			prev = cum
		}
		h.perDevice[d.ID] = dev
	}
	return nil
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Merge combines aggregates into a new one. Each device may appear in at
// most one part. Merge(Merge(a,b),c) and Merge(a,Merge(b,c)) export
// byte-identical snapshots, as do any permutations of the parts.
func Merge(parts ...*Agg) (*Agg, error) {
	out := NewAgg()
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := out.MergeFrom(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MergeFrom folds another aggregate into this one (map union).
func (a *Agg) MergeFrom(b *Agg) error {
	for id := range b.devices {
		if a.devices[id] {
			return fmt.Errorf("telemetry: device %q aggregated twice", id)
		}
		a.devices[id] = true
		a.simTimes[id] = b.simTimes[id]
	}
	for name, m := range b.counters {
		dst := a.counters[name]
		if dst == nil {
			dst = map[string]int64{}
			a.counters[name] = dst
		}
		for id, v := range m {
			dst[id] = v
		}
	}
	for name, m := range b.gauges {
		dst := a.gauges[name]
		if dst == nil {
			dst = map[string]float64{}
			a.gauges[name] = dst
		}
		for id, v := range m {
			dst[id] = v
		}
	}
	for name, h := range b.hists {
		dst := a.hists[name]
		if dst == nil {
			dst = &histAgg{
				bounds:    append([]float64(nil), h.bounds...),
				perDevice: map[string]histDev{},
			}
			a.hists[name] = dst
		}
		if !boundsEqual(dst.bounds, h.bounds) {
			return fmt.Errorf("telemetry: histogram %q bounds differ between shards", name)
		}
		for id, dev := range h.perDevice {
			dst.perDevice[id] = dev
		}
	}
	return nil
}

// AggregateParallel shards the devices across the worker pool, builds a
// per-shard aggregate on each worker via internal/parallel, and merges
// the shards. Because the merge is exactly associative and
// order-insensitive, the result is byte-identical to Aggregate(devs...)
// for every worker count.
func AggregateParallel(workers int, devs []Device) (*Agg, error) {
	if workers < 1 {
		workers = 1
	}
	shards := workers
	if shards > len(devs) {
		shards = len(devs)
	}
	if shards <= 1 {
		return Aggregate(devs...)
	}
	per := (len(devs) + shards - 1) / shards
	parts, err := parallel.MapN(workers, shards, func(i int) (*Agg, error) {
		lo := i * per
		if lo > len(devs) {
			lo = len(devs)
		}
		hi := lo + per
		if hi > len(devs) {
			hi = len(devs)
		}
		return Aggregate(devs[lo:hi]...)
	})
	if err != nil {
		return nil, err
	}
	return Merge(parts...)
}

// CounterStat is a counter's fleet rollup: the sum across devices plus
// the per-device spread.
type CounterStat struct {
	Total   int64 `json:"total"`
	Min     int64 `json:"min"`
	Max     int64 `json:"max"`
	Devices int   `json:"devices"`
}

// GaugeStat is a gauge's fleet rollup across the devices reporting it.
type GaugeStat struct {
	Min     float64 `json:"min"`
	Mean    float64 `json:"mean"`
	Max     float64 `json:"max"`
	Devices int     `json:"devices"`
}

// HistogramStat is a merged histogram: bucket-wise integer sums
// (cumulative, like metrics.HistogramSnapshot) plus deterministic
// quantile estimates.
type HistogramStat struct {
	Bounds   []float64 `json:"bounds"`
	Buckets  []int64   `json:"buckets"`
	Overflow int64     `json:"overflow"`
	Count    int64     `json:"count"`
	Sum      float64   `json:"sum"`
	P50      float64   `json:"p50"`
	P90      float64   `json:"p90"`
	P99      float64   `json:"p99"`
	Devices  int       `json:"devices"`
}

// FleetSnapshot is the exported fleet aggregate. Maps marshal with
// sorted keys, so equal fleets export equal bytes.
type FleetSnapshot struct {
	Devices    int                      `json:"devices"`
	DeviceIDs  []string                 `json:"device_ids"`
	SimTime    simtime.Instant          `json:"sim_time"`
	Counters   map[string]CounterStat   `json:"counters"`
	Gauges     map[string]GaugeStat     `json:"gauges"`
	Histograms map[string]HistogramStat `json:"histograms"`
}

// Export freezes the aggregate into its canonical fleet snapshot. Every
// float fold runs in sorted device-ID order, so the output is a pure
// function of the device set. The device IDs are sorted once; each
// series walks them and skips the devices it lacks.
func (a *Agg) Export() FleetSnapshot {
	fs := FleetSnapshot{
		Devices:    len(a.devices),
		DeviceIDs:  sortedKeys(a.devices),
		Counters:   map[string]CounterStat{},
		Gauges:     map[string]GaugeStat{},
		Histograms: map[string]HistogramStat{},
	}
	for _, id := range fs.DeviceIDs {
		if t := a.simTimes[id]; t > fs.SimTime {
			fs.SimTime = t
		}
	}
	for name, m := range a.counters {
		st := CounterStat{Devices: len(m)}
		first := true
		for _, id := range fs.DeviceIDs {
			v, ok := m[id]
			if !ok {
				continue
			}
			st.Total += v
			if first || v < st.Min {
				st.Min = v
			}
			if first || v > st.Max {
				st.Max = v
			}
			first = false
		}
		fs.Counters[name] = st
	}
	for name, m := range a.gauges {
		st := GaugeStat{Devices: len(m)}
		var sum float64
		first := true
		for _, id := range fs.DeviceIDs {
			v, ok := m[id]
			if !ok {
				continue
			}
			sum += v
			if first || v < st.Min {
				st.Min = v
			}
			if first || v > st.Max {
				st.Max = v
			}
			first = false
		}
		if st.Devices > 0 {
			st.Mean = sum / float64(st.Devices)
		}
		fs.Gauges[name] = st
	}
	for name, h := range a.hists {
		st := HistogramStat{
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]int64, len(h.bounds)),
			Devices: len(h.perDevice),
		}
		perBucket := make([]int64, len(h.bounds))
		for _, id := range fs.DeviceIDs {
			dev, ok := h.perDevice[id]
			if !ok {
				continue
			}
			for i, v := range dev.buckets {
				perBucket[i] += v
			}
			st.Overflow += dev.overflow
			st.Count += dev.count
			st.Sum += dev.sum
		}
		var cum int64
		for i, v := range perBucket {
			cum += v
			st.Buckets[i] = cum
		}
		st.P50 = Quantile(st, 0.50)
		st.P90 = Quantile(st, 0.90)
		st.P99 = Quantile(st, 0.99)
		fs.Histograms[name] = st
	}
	return fs
}

// Quantile estimates the q-quantile of a merged histogram by linear
// interpolation within the bucket holding the target rank —
// prometheus-style, hence deterministic: the estimate depends only on
// the integer bucket counts and the bounds. The estimate lies within the
// true quantile's bucket, so its error is bounded by that bucket's
// width; ranks landing in the overflow bucket clamp to the last bound.
// It returns 0 for an empty histogram and clamps q into [0, 1].
func Quantile(h HistogramStat, q float64) float64 {
	if h.Count <= 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	last := len(h.Bounds) - 1
	if float64(h.Buckets[last]) < rank {
		return h.Bounds[last] // in the overflow bucket: clamp
	}
	for i, cum := range h.Buckets {
		if float64(cum) < rank {
			continue
		}
		var prev int64
		lower := 0.0
		if i > 0 {
			prev = h.Buckets[i-1]
			lower = h.Bounds[i-1]
		} else if h.Bounds[0] <= 0 {
			// No finite lower edge for the first bucket of a
			// non-positive bound: the bound itself is the estimate.
			return h.Bounds[0]
		}
		width := h.Bounds[i] - lower
		inBucket := cum - prev
		if inBucket <= 0 {
			return h.Bounds[i]
		}
		return lower + width*(rank-float64(prev))/float64(inBucket)
	}
	return h.Bounds[last]
}

// WriteJSON writes the snapshot as indented JSON, byte-stable for a
// given device set.
func (fs FleetSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
