package telemetry

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// exportSortPerSeries is the previous Export: the same folds, but each
// counter, gauge and histogram series sorts its own device IDs. It is
// kept as the reference the single-sort Export must reproduce.
func exportSortPerSeries(a *Agg) FleetSnapshot {
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
// sums included — on fleets where most series miss some devices.
func TestExportMatchesPerSeriesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 7, 300} {
		a, err := AggregateParallel(3, randomFleet(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := a.Export(), exportSortPerSeries(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d devices: Export differs from the per-series sort", n)
		}
	}
}

// BenchmarkExport compares the per-series sort (old) with the single
// device-ID sort (new) on a 4000-device fleet; "speedup" times both
// arms in one iteration and reports the ratio.
func BenchmarkExport(b *testing.B) {
	a, err := Aggregate(randomFleet(rand.New(rand.NewSource(4000)), 4000)...)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(a.Export(), exportSortPerSeries(a)) {
		b.Fatal("Export differs from the per-series sort")
	}
	b.Run("old-sort-per-series", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exportSortPerSeries(a)
		}
	})
	b.Run("new-sort-once", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.Export()
		}
	})
	b.Run("speedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			start := time.Now()
			exportSortPerSeries(a)
			old := time.Since(start)
			start = time.Now()
			a.Export()
			b.ReportMetric(float64(old)/float64(time.Since(start)), "speedup-x")
		}
	})
}
