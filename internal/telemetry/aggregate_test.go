package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"netmaster/internal/metrics"
	"netmaster/internal/middleware"
	"netmaster/internal/simtime"
)

// The series a middleware-replayed device exports: 27 counters, 2
// gauges and the deferral histogram — the mix every device of the serve
// benchmark's fleet-ingest workload carries.
var (
	replayCounters = []string{
		"mw_events_total", "mw_ticks_total", "mw_records_written_total",
		"mw_db_faults_total", "mw_mine_runs_total", "mw_mine_faults_total",
		"mw_mode_transitions_total", "mw_stale_events_total", "mw_duty_wakes_total",
		"replay_transfers_total", "replay_bytes_down_total", "replay_bytes_up_total",
		"replay_deferrals_total", "replay_burst_seconds_total", "replay_wake_windows_total",
		"replay_wake_window_seconds_total", "replay_commands_total", "replay_radio_sessions_total",
		"replay_radio_retries_total", "replay_sync_retries_total", "replay_transfer_retries_total",
		"replay_radio_giveups_total", "replay_sync_giveups_total", "replay_deadline_flushes_total",
		"replay_dropped_events_total", "replay_dup_events_total", "replay_reordered_events_total",
	}
	replayGauges = []string{"mw_mode", "mw_special_apps"}
)

// awkwardFloat draws floats whose sums depend on the folding order, plus
// the signed zeros whose min/max ties do.
func awkwardFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 1e300
	case 3:
		return math.SmallestNonzeroFloat64
	default:
		return rng.NormFloat64() * math.Pi * 1e3
	}
}

// sparseDevice draws a snapshot from the replay series pool: most
// series present, some missing, and on some devices a whole section
// nil or empty. Histogram counts are sometimes non-monotone or large
// enough to wrap when summed, which the wire format allows.
func sparseDevice(rng *rand.Rand, id string) Device {
	s := metrics.Snapshot{SimTime: simtime.Instant(rng.Int63n(1<<20) - 1<<10)}
	// section reports whether to give a section a map (one in ten stays
	// nil) and whether to fill it (another one in ten stays empty).
	section := func() (present, fill bool) {
		k := rng.Intn(10)
		return k > 0, k > 1
	}
	if present, fill := section(); present {
		s.Counters = map[string]int64{}
		for _, n := range replayCounters {
			if fill && rng.Intn(5) > 0 {
				s.Counters[n] = rng.Int63n(1<<40) - 1<<20
			}
		}
	}
	if present, fill := section(); present {
		s.Gauges = map[string]float64{}
		for _, n := range replayGauges {
			if fill && rng.Intn(4) > 0 {
				s.Gauges[n] = awkwardFloat(rng)
			}
		}
	}
	if present, fill := section(); present {
		s.Histograms = map[string]metrics.HistogramSnapshot{}
		for name, bounds := range map[string][]float64{
			"replay_defer_seconds": middleware.DeferBuckets,
			"sched_slot_bytes":     {0, 1e3, 1e6},
			"no_bounds":            nil,
		} {
			if !fill || rng.Intn(3) == 0 {
				continue
			}
			hs := metrics.HistogramSnapshot{Bounds: bounds, Buckets: make([]int64, len(bounds))}
			var cum int64
			for i := range hs.Buckets {
				if rng.Intn(4) == 0 {
					hs.Buckets[i] = rng.Int63() - 1<<62
				} else {
					cum += rng.Int63n(50)
					hs.Buckets[i] = cum
				}
			}
			hs.Overflow = rng.Int63n(5)
			hs.Count = cum + hs.Overflow
			hs.Sum = awkwardFloat(rng)
			s.Histograms[name] = hs
		}
	}
	return Device{ID: id, Snapshot: s}
}

func sparseFleet(rng *rand.Rand, n int) []Device {
	devs := make([]Device, n)
	for i, id := range rng.Perm(n) {
		devs[i] = sparseDevice(rng, fmt.Sprintf("dev-%d", id))
	}
	return devs
}

func jsonBytes(tb testing.TB, fs FleetSnapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := fs.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestAggregateMatchesReference: the columnar aggregate exports the
// reference's bytes on random sparse fleets added in shuffled order, and
// rejects bad input with the reference's error text, leaving the
// aggregate as it was before the rejected device.
func TestAggregateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 7, 300, 4000} {
		for trial := 0; trial < 3; trial++ {
			devs := sparseFleet(rng, n)
			ref, err := refAggregate(devs...)
			if err != nil {
				t.Fatal(err)
			}
			want := jsonBytes(t, ref.Export())
			shuffled := append([]Device(nil), devs...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			a, err := Aggregate(shuffled...)
			if err != nil {
				t.Fatal(err)
			}
			if got := jsonBytes(t, a.Export()); !bytes.Equal(got, want) {
				t.Fatalf("%d devices, trial %d: columnar export differs from the reference", n, trial)
			}
		}
	}

	faults := map[string]func(devs []Device, i int){
		"empty ID": func(devs []Device, i int) { devs[i].ID = "" },
		"duplicate ID": func(devs []Device, i int) {
			devs[i].ID = devs[rng.Intn(i)].ID
		},
		"mismatched bounds": func(devs []Device, i int) {
			devs[i].Snapshot.Histograms = map[string]metrics.HistogramSnapshot{
				"replay_defer_seconds": {Bounds: []float64{2, 20}, Buckets: []int64{1, 2}, Count: 2},
			}
		},
		"malformed buckets": func(devs []Device, i int) {
			devs[i].Snapshot.Histograms = map[string]metrics.HistogramSnapshot{
				"replay_defer_seconds": {Bounds: middleware.DeferBuckets, Buckets: []int64{1, 2}, Count: 2},
			}
		},
	}
	for name, fault := range faults {
		for trial := 0; trial < 10; trial++ {
			devs := sparseFleet(rng, 40)
			i := 1 + rng.Intn(len(devs)-1)
			fault(devs, i)
			_, refErr := refAggregate(devs...)
			_, err := Aggregate(devs...)
			if refErr == nil || err == nil || err.Error() != refErr.Error() {
				t.Fatalf("%s, trial %d: error %v, reference %v", name, trial, err, refErr)
			}
			// A device whose bounds came first fails the next one
			// carrying the histogram instead.
			i, _ = firstRejected(newRefAgg().Add, devs)
			a, err := Aggregate(devs[:i]...)
			if err != nil {
				t.Fatal(err)
			}
			if a.Add(devs[i]) == nil {
				t.Fatalf("%s, trial %d: device %d accepted", name, trial, i)
			}
			ref, _ := refAggregate(devs[:i]...)
			if !bytes.Equal(jsonBytes(t, a.Export()), jsonBytes(t, ref.Export())) {
				t.Fatalf("%s, trial %d: rejected device changed the aggregate", name, trial)
			}
		}
	}
}

// wireDevice is a device as the serve tier's ingest carries it.
type wireDevice struct {
	ID      string           `json:"device_id"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// FuzzAggregate decodes the input as a JSON array of wire devices and
// checks the columnar aggregate against the reference: the same device
// is rejected first, with the same error text, and an accepted fleet
// exports the same bytes in input and reversed order.
func FuzzAggregate(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3} {
		var wire []wireDevice
		for _, d := range sparseFleet(rng, n) {
			wire = append(wire, wireDevice{ID: d.ID, Metrics: d.Snapshot})
		}
		seed, err := json.Marshal(wire)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`[{"device_id":"a","metrics":{"gauges":{"g":-0}}},{"device_id":"b","metrics":{"gauges":{"g":0}}}]`))
	f.Add([]byte(`[{"device_id":"a","metrics":{"histograms":{"h":{"bounds":[1],"buckets":[0],"sum":1}}}},` +
		`{"device_id":"b","metrics":{"histograms":{"h":{"bounds":[1],"buckets":[0],"sum":1e16}}}},` +
		`{"device_id":"c","metrics":{"histograms":{"h":{"bounds":[1],"buckets":[0],"sum":-1e16}}}}]`))
	f.Add([]byte(`[{"device_id":"a"},{"device_id":"a"}]`))
	f.Add([]byte(`[{"device_id":""}]`))
	f.Add([]byte(`[{"device_id":"a","metrics":{"histograms":{"h":{"bounds":[1],"buckets":[]}}}}]`))
	f.Add([]byte(`[{"device_id":"a","metrics":{"histograms":{"h":{"bounds":[1],"buckets":[3]}}}},` +
		`{"device_id":"b","metrics":{"histograms":{"h":{"bounds":[2],"buckets":[1]}}}}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var wire []wireDevice
		if json.Unmarshal(data, &wire) != nil {
			return
		}
		devs := make([]Device, len(wire))
		for i, w := range wire {
			devs[i] = Device{ID: w.ID, Snapshot: w.Metrics}
		}
		a, ref := NewAgg(), newRefAgg()
		i, err := firstRejected(a.Add, devs)
		j, refErr := firstRejected(ref.Add, devs)
		if i != j {
			t.Fatalf("first rejected device %d (%v), reference %d (%v)", i, err, j, refErr)
		}
		if i >= 0 {
			// Which of several bad histograms a device reports first
			// follows map order in both implementations.
			if len(devs[i].Snapshot.Histograms) <= 1 && err.Error() != refErr.Error() {
				t.Fatalf("error %q, reference %q", err, refErr)
			}
			return
		}
		want := exportText(ref.Export())
		if got := exportText(a.Export()); got != want {
			t.Fatalf("export differs from the reference:\n%s\nwant:\n%s", got, want)
		}
		for l, r := 0, len(devs)-1; l < r; l, r = l+1, r-1 {
			devs[l], devs[r] = devs[r], devs[l]
		}
		rev, err := Aggregate(devs...)
		if err != nil {
			t.Fatal(err)
		}
		if got := exportText(rev.Export()); got != want {
			t.Fatal("reversed-order export differs from the reference")
		}
	})
}

// exportText renders a snapshot as its JSON export or, when sums
// overflowed to ±Inf, which JSON cannot carry, as Go syntax.
func exportText(fs FleetSnapshot) string {
	var buf bytes.Buffer
	if fs.WriteJSON(&buf) != nil {
		return fmt.Sprintf("%+v", fs)
	}
	return buf.String()
}

// firstRejected adds devs in order and returns the index and error of
// the first device add rejects, or -1.
func firstRejected(add func(Device) error, devs []Device) (int, error) {
	for i, d := range devs {
		if err := add(d); err != nil {
			return i, err
		}
	}
	return -1, nil
}

// replayFleet builds n devices carrying every replay series, as the
// serve benchmark's fleet-ingest devices do.
func replayFleet(rng *rand.Rand, n int) []Device {
	devs := make([]Device, n)
	for i, id := range rng.Perm(n) {
		s := metrics.Snapshot{
			SimTime:    simtime.Instant(rng.Int63n(1 << 20)),
			Counters:   make(map[string]int64, len(replayCounters)),
			Gauges:     make(map[string]float64, len(replayGauges)),
			Histograms: map[string]metrics.HistogramSnapshot{},
		}
		for _, name := range replayCounters {
			s.Counters[name] = rng.Int63n(1 << 30)
		}
		for _, name := range replayGauges {
			s.Gauges[name] = rng.NormFloat64() * 1e3
		}
		bounds := middleware.DeferBuckets
		hs := metrics.HistogramSnapshot{Bounds: bounds, Buckets: make([]int64, len(bounds))}
		var cum int64
		for b := range bounds {
			cum += rng.Int63n(100)
			hs.Buckets[b] = cum
		}
		hs.Count = cum
		hs.Sum = rng.Float64() * 1e6
		s.Histograms["replay_defer_seconds"] = hs
		devs[i] = Device{ID: fmt.Sprintf("fleet-%05d", id), Snapshot: s}
	}
	return devs
}

var aggSink *Agg

// BenchmarkAggregate compares the reference map-of-maps aggregation
// (old) with the columnar one (new) on 4000 replay-shaped devices;
// "speedup" times both arms in one iteration and reports the ratio.
func BenchmarkAggregate(b *testing.B) {
	devs := replayFleet(rand.New(rand.NewSource(4000)), 4000)
	ref, err := refAggregate(devs...)
	if err != nil {
		b.Fatal(err)
	}
	a, err := Aggregate(devs...)
	if err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(jsonBytes(b, a.Export()), jsonBytes(b, ref.Export())) {
		b.Fatal("columnar export differs from the reference")
	}
	b.Run("old-map-of-maps", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref, _ = refAggregate(devs...)
		}
	})
	b.Run("new-columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aggSink, _ = Aggregate(devs...)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			start := time.Now()
			ref, _ = refAggregate(devs...)
			old := time.Since(start)
			start = time.Now()
			aggSink, _ = Aggregate(devs...)
			b.ReportMetric(float64(old)/float64(time.Since(start)), "speedup-x")
		}
	})
}
