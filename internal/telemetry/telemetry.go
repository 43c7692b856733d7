// Package telemetry rolls per-device metrics snapshots up into fleet
// aggregates. A single simulated device exports a metrics.Snapshot; a
// cohort run produces one per device; this package folds them into one
// FleetSnapshot — counters summed, gauges reduced to min/mean/max,
// histograms summed bucket-wise with deterministic quantile estimates —
// the population-level view the paper's headline numbers are stated in.
//
// An export is a pure function of the device set: the order in which
// devices were added never shows in its bytes.
//
//   - Integer state (counter values, histogram bucket counts) folds by
//     int64 addition, min and max — exact in any order.
//   - Float state (gauge values, histogram sums) is kept per device as
//     added and folded only at Export time, in sorted device-ID order —
//     so float rounding, and min/max ties between -0 and +0 or NaN,
//     resolve the same way whatever order the devices arrived in.
//
// The package's tests pin this with random permutations of the input
// and against a map-based reference implementation.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"netmaster/internal/metrics"
	"netmaster/internal/simtime"
)

// Device is one device's contribution to the fleet: a stable identifier
// (the cohort user ID in the simulators) and its exported snapshot.
type Device struct {
	ID       string
	Snapshot metrics.Snapshot
}

// column is one counter or gauge series: entry j is device dev[j]'s
// value val[j], in Add order.
type column[V int64 | float64] struct {
	dev []int32
	val []V
}

// histColumn is one histogram series. Entry j belongs to device dev[j];
// its cumulative bucket counts are
// buckets[j*len(bounds) : (j+1)*len(bounds)].
type histColumn struct {
	bounds   []float64
	dev      []int32
	buckets  []int64
	overflow []int64
	count    []int64
	sum      []float64
}

// Agg is a fleet aggregate under construction. The zero value is not
// usable; build one with NewAgg or Aggregate and extend it with Add.
// Devices are numbered in Add order; every series is a column of
// per-device entries, so adding a device costs one map insert plus an
// append per series it reports.
type Agg struct {
	// capHint is how many devices the aggregate expects; a new column
	// reserves room for the ones still to come.
	capHint  int
	ids      []string
	index    map[string]int32
	simTimes []simtime.Instant
	counters map[string]*column[int64]
	gauges   map[string]*column[float64]
	hists    map[string]*histColumn
}

// NewAgg returns an empty aggregate.
func NewAgg() *Agg {
	return &Agg{
		index:    map[string]int32{},
		counters: map[string]*column[int64]{},
		gauges:   map[string]*column[float64]{},
		hists:    map[string]*histColumn{},
	}
}

// Aggregate folds the given device snapshots into a fresh aggregate.
// Device IDs must be non-empty and unique; histograms sharing a name
// must share bounds across devices.
func Aggregate(devs ...Device) (*Agg, error) {
	a := NewAgg()
	a.capHint = len(devs)
	a.index = make(map[string]int32, len(devs))
	a.ids = make([]string, 0, len(devs))
	a.simTimes = make([]simtime.Instant, 0, len(devs))
	for _, d := range devs {
		if err := a.Add(d); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Add folds one device snapshot into the aggregate. A rejected device
// leaves the aggregate unchanged.
func (a *Agg) Add(d Device) error {
	if d.ID == "" {
		return fmt.Errorf("telemetry: device with empty ID")
	}
	if _, dup := a.index[d.ID]; dup {
		return fmt.Errorf("telemetry: device %q aggregated twice", d.ID)
	}
	for name, hs := range d.Snapshot.Histograms {
		if h := a.hists[name]; h != nil && !boundsEqual(h.bounds, hs.Bounds) {
			return fmt.Errorf("telemetry: histogram %q bounds differ on device %q", name, d.ID)
		}
		if len(hs.Buckets) != len(hs.Bounds) {
			return fmt.Errorf("telemetry: histogram %q malformed on device %q: %d buckets for %d bounds",
				name, d.ID, len(hs.Buckets), len(hs.Bounds))
		}
	}
	dev := int32(len(a.ids))
	a.index[d.ID] = dev
	a.ids = append(a.ids, d.ID)
	a.simTimes = append(a.simTimes, d.Snapshot.SimTime)
	room := max(a.capHint-int(dev), 1)
	for name, v := range d.Snapshot.Counters {
		appendEntry(a.counters, name, dev, v, room)
	}
	for name, v := range d.Snapshot.Gauges {
		appendEntry(a.gauges, name, dev, v, room)
	}
	for name, hs := range d.Snapshot.Histograms {
		h := a.hists[name]
		if h == nil {
			h = &histColumn{
				bounds:   append([]float64(nil), hs.Bounds...),
				dev:      make([]int32, 0, room),
				buckets:  make([]int64, 0, room*len(hs.Bounds)),
				overflow: make([]int64, 0, room),
				count:    make([]int64, 0, room),
				sum:      make([]float64, 0, room),
			}
			a.hists[name] = h
		}
		h.dev = append(h.dev, dev)
		h.buckets = append(h.buckets, hs.Buckets...)
		h.overflow = append(h.overflow, hs.Overflow)
		h.count = append(h.count, hs.Count)
		h.sum = append(h.sum, hs.Sum)
	}
	return nil
}

func appendEntry[V int64 | float64](cols map[string]*column[V], name string, dev int32, v V, room int) {
	c := cols[name]
	if c == nil {
		c = &column[V]{dev: make([]int32, 0, room), val: make([]V, 0, room)}
		cols[name] = c
	}
	c.dev = append(c.dev, dev)
	c.val = append(c.val, v)
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

// HistogramStat is a fleet histogram: bucket-wise integer sums
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

// Export freezes the aggregate into its canonical fleet snapshot. The
// device IDs are sorted once and every device ranked; float folds walk
// each column in rank order, integer folds in any order, so the output
// is a pure function of the device set.
func (a *Agg) Export() FleetSnapshot {
	n := len(a.ids)
	fs := FleetSnapshot{
		Devices:    n,
		DeviceIDs:  make([]string, n),
		Counters:   make(map[string]CounterStat, len(a.counters)),
		Gauges:     make(map[string]GaugeStat, len(a.gauges)),
		Histograms: make(map[string]HistogramStat, len(a.hists)),
	}
	copy(fs.DeviceIDs, a.ids)
	sort.Strings(fs.DeviceIDs)
	rank := make([]int32, n)
	for r, id := range fs.DeviceIDs {
		rank[a.index[id]] = int32(r)
	}
	for _, t := range a.simTimes {
		if t > fs.SimTime {
			fs.SimTime = t
		}
	}
	slot := make([]int32, n)
	order := make([]int32, 0, n)
	for name, c := range a.counters {
		st := CounterStat{Devices: len(c.val)}
		for j, v := range c.val {
			st.Total += v
			if j == 0 || v < st.Min {
				st.Min = v
			}
			if j == 0 || v > st.Max {
				st.Max = v
			}
		}
		fs.Counters[name] = st
	}
	for name, c := range a.gauges {
		st := GaugeStat{Devices: len(c.val)}
		var sum float64
		order = byID(c.dev, rank, slot, order)
		for k, j := range order {
			v := c.val[j]
			sum += v
			if k == 0 || v < st.Min {
				st.Min = v
			}
			if k == 0 || v > st.Max {
				st.Max = v
			}
		}
		if st.Devices > 0 {
			st.Mean = sum / float64(st.Devices)
		}
		fs.Gauges[name] = st
	}
	for name, h := range a.hists {
		nb := len(h.bounds)
		st := HistogramStat{
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]int64, nb),
			Devices: len(h.dev),
		}
		// Summing cumulative counts is int64 addition, so it equals
		// cumulating the summed per-bucket counts.
		for j := range h.dev {
			for i, v := range h.buckets[j*nb : (j+1)*nb] {
				st.Buckets[i] += v
			}
			st.Overflow += h.overflow[j]
			st.Count += h.count[j]
		}
		order = byID(h.dev, rank, slot, order)
		for _, j := range order {
			st.Sum += h.sum[j]
		}
		st.P50 = Quantile(st, 0.50)
		st.P90 = Quantile(st, 0.90)
		st.P99 = Quantile(st, 0.99)
		fs.Histograms[name] = st
	}
	return fs
}

// byID returns into out the indices of a column's entries, whose entry
// j belongs to device dev[j], in sorted device-ID order. slot is
// scratch with one zero per device; byID leaves it zeroed.
func byID(dev, rank, slot, out []int32) []int32 {
	for j, d := range dev {
		slot[rank[d]] = int32(j) + 1
	}
	out = out[:0]
	for r, s := range slot {
		if s != 0 {
			out = append(out, s-1)
			slot[r] = 0
		}
	}
	return out
}

// Quantile estimates the q-quantile of a merged histogram with
// metrics.BucketQuantile: linear interpolation within the bucket holding
// the target rank, so the error is bounded by that bucket's width and
// ranks landing in the overflow bucket clamp to the last bound. It
// returns 0 for an empty histogram and clamps q into [0, 1].
func Quantile(h HistogramStat, q float64) float64 {
	return metrics.BucketQuantile(h.Bounds, h.Buckets, h.Count, q)
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
