package telemetry

import (
	"fmt"

	"netmaster/internal/simtime"
)

// refHistDev is one device's share of a histogram: bucket counts are
// stored non-cumulative so summing devices is plain addition per bucket.
type refHistDev struct {
	buckets  []int64
	overflow int64
	count    int64
	sum      float64
}

// refHistAgg is a histogram's state: the common bounds plus each
// device's contribution.
type refHistAgg struct {
	bounds    []float64
	perDevice map[string]refHistDev
}

// refAgg is the map-of-maps aggregate the columnar Agg replaced: every
// series is a map keyed by device ID. It is kept as the reference Agg
// must reproduce byte for byte.
type refAgg struct {
	devices  map[string]bool
	simTimes map[string]simtime.Instant
	counters map[string]map[string]int64
	gauges   map[string]map[string]float64
	hists    map[string]*refHistAgg
}

// newRefAgg returns an empty reference aggregate.
func newRefAgg() *refAgg {
	return &refAgg{
		devices:  map[string]bool{},
		simTimes: map[string]simtime.Instant{},
		counters: map[string]map[string]int64{},
		gauges:   map[string]map[string]float64{},
		hists:    map[string]*refHistAgg{},
	}
}

// refAggregate folds the given device snapshots into a fresh reference
// aggregate, with Aggregate's input rules.
func refAggregate(devs ...Device) (*refAgg, error) {
	a := newRefAgg()
	for _, d := range devs {
		if err := a.Add(d); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Add folds one device snapshot into the aggregate.
func (a *refAgg) Add(d Device) error {
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
			h = &refHistAgg{
				bounds:    append([]float64(nil), hs.Bounds...),
				perDevice: map[string]refHistDev{},
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
		dev := refHistDev{
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

// Export freezes the aggregate into its canonical fleet snapshot. Every
// float fold runs in sorted device-ID order, so the output is a pure
// function of the device set. The device IDs are sorted once; each
// series walks them and skips the devices it lacks.
func (a *refAgg) Export() FleetSnapshot {
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
