package telemetry

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// exportSortPerSeries is the reference aggregate's export before it
// sorted the device IDs once: the same folds, but each counter, gauge
// and histogram series sorts its own device IDs.
func exportSortPerSeries(a *refAgg) FleetSnapshot {
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
		for _, id := range sortedKeys(m) {
			v := m[id]
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
		for _, id := range sortedKeys(m) {
			v := m[id]
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
		for _, id := range sortedKeys(h.perDevice) {
			dev := h.perDevice[id]
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

// TestExportMatchesPerSeriesSort: walking the once-sorted device IDs
// and skipping absent ones folds every series in the same order as
// sorting each series' own keys, so the snapshots are identical — float
// sums included — on fleets where most series miss some devices. The
// columnar Export must agree with both.
func TestExportMatchesPerSeriesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 7, 300} {
		devs := randomFleet(rng, n)
		ref, err := refAggregate(devs...)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Aggregate(devs...)
		if err != nil {
			t.Fatal(err)
		}
		want := exportSortPerSeries(ref)
		if !reflect.DeepEqual(ref.Export(), want) {
			t.Fatalf("%d devices: reference Export differs from the per-series sort", n)
		}
		if !reflect.DeepEqual(a.Export(), want) {
			t.Fatalf("%d devices: columnar Export differs from the per-series sort", n)
		}
	}
}

// BenchmarkExport compares the reference map-of-maps export (old) with
// the columnar one (new) on a 4000-device fleet; "speedup" times both
// arms in one iteration and reports the ratio.
func BenchmarkExport(b *testing.B) {
	devs := randomFleet(rand.New(rand.NewSource(4000)), 4000)
	ref, err := refAggregate(devs...)
	if err != nil {
		b.Fatal(err)
	}
	a, err := Aggregate(devs...)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(a.Export(), ref.Export()) {
		b.Fatal("columnar Export differs from the reference")
	}
	b.Run("old-map-of-maps", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref.Export()
		}
	})
	b.Run("new-columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.Export()
		}
	})
	b.Run("speedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			start := time.Now()
			ref.Export()
			old := time.Since(start)
			start = time.Now()
			a.Export()
			b.ReportMetric(float64(old)/float64(time.Since(start)), "speedup-x")
		}
	})
}
