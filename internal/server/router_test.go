package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"netmaster/internal/faults"
	"netmaster/internal/metrics"
)

// routed is an N-shard serve tier under test: the shard daemons, the
// router in front of them, and a client pointed at the router.
type routed struct {
	shards  []*Server
	shardTS []*httptest.Server
	rt      *Router
	ts      *httptest.Server
	client  *Client
}

// routerFixture boots n in-memory shards and a router across them.
func routerFixture(t *testing.T, n int, mutate func(*Config), rmutate func(*RouterConfig)) *routed {
	t.Helper()
	f := &routed{}
	backends := make([]string, n)
	for i := 0; i < n; i++ {
		s, ts, _ := testServer(t, mutate)
		f.shards = append(f.shards, s)
		f.shardTS = append(f.shardTS, ts)
		backends[i] = ts.URL
	}
	cfg := DefaultRouterConfig()
	cfg.Backends = backends
	cfg.Metrics = metrics.NewRegistry()
	if rmutate != nil {
		rmutate(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	f.ts = httptest.NewServer(rt)
	t.Cleanup(f.ts.Close)
	f.client = NewClient(f.ts.URL, nil)
	return f
}

// stressCohort clones the replay cohort's ingest bodies onto n synthetic
// device IDs so the fleet spreads across every shard.
func stressCohort(t *testing.T, n int) []IngestRequest {
	t.Helper()
	base := replayCohort(t, 4)
	out := make([]IngestRequest, 0, len(base)+n)
	out = append(out, base...)
	for i := 0; i < n; i++ {
		clone := base[i%len(base)]
		clone.DeviceID = fmt.Sprintf("stress/dev-%03d", i)
		out = append(out, clone)
	}
	return out
}

// TestRouterReportByteIdenticalToSingleNode is the sharding tier's
// correctness contract: the same cohort ingested into one daemon and
// into three daemons behind the router yields byte-identical
// /v1/fleet/report documents and byte-identical fleet-scope Prometheus
// expositions — across fan-out parallelism and ingest order, mixing
// single-device and batch ingestion on the routed side.
func TestRouterReportByteIdenticalToSingleNode(t *testing.T) {
	cohort := stressCohort(t, 18)
	for _, par := range []int{1, 8} {
		for _, shuffled := range []bool{false, true} {
			t.Run(fmt.Sprintf("parallelism=%d/shuffled=%v", par, shuffled), func(t *testing.T) {
				order := make([]int, len(cohort))
				for i := range order {
					order[i] = i
				}
				if shuffled {
					rand.New(rand.NewSource(7)).Shuffle(len(order), func(i, j int) {
						order[i], order[j] = order[j], order[i]
					})
				}

				_, soloTS, soloC := testServer(t, func(c *Config) { c.Parallelism = par })
				for _, i := range order {
					if _, err := soloC.Ingest(context.Background(), cohort[i]); err != nil {
						t.Fatal(err)
					}
				}

				f := routerFixture(t, 3,
					func(c *Config) { c.Parallelism = par },
					func(rc *RouterConfig) { rc.Parallelism = par })
				// Half the cohort through single-device proxying, the rest
				// as one routed batch.
				half := len(order) / 2
				for _, i := range order[:half] {
					if _, err := f.client.Ingest(context.Background(), cohort[i]); err != nil {
						t.Fatal(err)
					}
				}
				batch := BatchIngestRequest{RequestID: "equiv-1"}
				for _, i := range order[half:] {
					batch.Items = append(batch.Items, cohort[i])
				}
				bresp, err := f.client.IngestBatch(context.Background(), batch)
				if err != nil {
					t.Fatal(err)
				}
				if bresp.Failed != 0 {
					t.Fatalf("routed batch failed %d items: %+v", bresp.Failed, bresp.Results)
				}

				for _, path := range []string{
					"/v1/fleet/report",
					"/v1/fleet/report?model=lte",
					"/metrics?scope=fleet",
				} {
					want := get(t, soloTS, path)
					got := get(t, f.ts, path)
					if !bytes.Equal(got, want) {
						t.Errorf("routed %s differs from the single-node document", path)
					}
				}
			})
		}
	}
}

// TestRouterPlacementMatchesRing: every ingested device lands on
// exactly the shard the ring names, and on no other.
func TestRouterPlacementMatchesRing(t *testing.T) {
	f := routerFixture(t, 3, nil, nil)
	cohort := stressCohort(t, 27)
	want := make(map[string]map[string]bool) // shard URL → device set
	for _, ing := range cohort {
		owner := f.rt.Ring().Owner(ing.DeviceID)
		if want[owner] == nil {
			want[owner] = map[string]bool{}
		}
		want[owner][ing.DeviceID] = true
		if _, err := f.client.Ingest(context.Background(), ing); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i := range f.shards {
		sc := NewClient(f.shardTS[i].URL, nil)
		fd, err := sc.FleetDevices(context.Background(), "", false)
		if err != nil {
			t.Fatal(err)
		}
		total += len(fd.Devices)
		for _, d := range fd.Devices {
			if !want[f.shardTS[i].URL][d.DeviceID] {
				t.Errorf("device %s landed on %s, ring owner is %s",
					d.DeviceID, f.shardTS[i].URL, f.rt.Ring().Owner(d.DeviceID))
			}
		}
	}
	if total != len(cohort) {
		t.Errorf("shards hold %d devices in total, want %d", total, len(cohort))
	}
}

// TestRouterSchedulePassthrough: a single-device request through the
// router answers byte-identically to a standalone daemon — the proxy
// adds routing, not behaviour.
func TestRouterSchedulePassthrough(t *testing.T) {
	f := routerFixture(t, 3, nil, nil)
	_, soloTS, _ := testServer(t, nil)
	body := `{"device_id": "dev-a", "gen": {"user": "volunteer1", "days": 7}, "day": 1,
	          "activities": [{"id": 1, "time_secs": 97200, "bytes": 200000, "active_secs": 5}]}`
	want := post(t, soloTS, "/v1/schedule", body)
	got := post(t, f.ts, "/v1/schedule", body)
	if !bytes.Equal(got, want) {
		t.Errorf("routed /v1/schedule differs from a standalone daemon:\n%s\nvs\n%s", got, want)
	}
}

// TestRouterBatchDedupAcrossShards: a retried routed batch deduplicates
// at every shard — the derived sub-batch keys are stable — and the
// router reassembles the identical envelope with the replay header.
func TestRouterBatchDedupAcrossShards(t *testing.T) {
	f := routerFixture(t, 3, nil, nil)
	body := mustJSON(t, BatchIngestRequest{RequestID: "router-dedup-1", Items: stressCohort(t, 12)})

	first, ack1 := postRaw(t, f.ts, "/v1/fleet/ingest:batch", body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first routed batch: status %d: %s", first.StatusCode, ack1)
	}
	devices := 0
	for _, s := range f.shards {
		devices += s.Devices()
	}

	second, ack2 := postRaw(t, f.ts, "/v1/fleet/ingest:batch", body)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("duplicate routed batch: status %d", second.StatusCode)
	}
	if second.Header.Get("X-Netmaster-Idempotent-Replay") != "true" {
		t.Error("duplicate routed batch missing the replay header")
	}
	if !bytes.Equal(ack1, ack2) {
		t.Errorf("duplicate routed ack differs from the original:\n%s\nvs\n%s", ack1, ack2)
	}
	after := 0
	for _, s := range f.shards {
		after += s.Devices()
	}
	if after != devices {
		t.Errorf("duplicate routed batch changed the fleet: %d -> %d devices", devices, after)
	}
}

// TestRouterHealthz: the fan-out health document sums shard fleets and
// is "ok" only while every shard is.
func TestRouterHealthz(t *testing.T) {
	f := routerFixture(t, 3, nil, nil)
	for _, ing := range stressCohort(t, 9) {
		if _, err := f.client.Ingest(context.Background(), ing); err != nil {
			t.Fatal(err)
		}
	}
	var h RouterHealthResponse
	if err := json.Unmarshal(get(t, f.ts, "/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Shards) != 3 {
		t.Fatalf("healthz = status %q with %d shards, want ok/3", h.Status, len(h.Shards))
	}
	want := 0
	for _, s := range f.shards {
		want += s.Devices()
	}
	if h.Devices != want {
		t.Errorf("healthz devices = %d, want %d", h.Devices, want)
	}
}

// TestRouterHealthzUnreachableShard: a dead backend degrades the
// router's health instead of hiding the hole.
func TestRouterHealthzUnreachableShard(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, live1, _ := testServer(t, nil)
	_, live2, _ := testServer(t, nil)

	cfg := DefaultRouterConfig()
	cfg.Backends = []string{live1.URL, live2.URL, deadURL}
	cfg.Metrics = metrics.NewRegistry()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()

	var h RouterHealthResponse
	if err := json.Unmarshal(get(t, ts, "/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Errorf("healthz status = %q with a dead shard, want degraded", h.Status)
	}
	unreachable := 0
	for _, sh := range h.Shards {
		if sh.Status == "unreachable" {
			unreachable++
			if sh.Shard != deadURL {
				t.Errorf("unreachable shard = %s, want %s", sh.Shard, deadURL)
			}
		}
	}
	if unreachable != 1 {
		t.Errorf("healthz reports %d unreachable shards, want 1", unreachable)
	}
}

// TestRouterBatchStressWithDegradedShard hammers the routed batch
// endpoints with concurrent mixed load while one shard's journal is
// dead: items owned by the degraded shard fail with per-item read_only
// errors, items on healthy shards succeed, reads (schedule batches and
// fleet reports) stay up everywhere, nothing is fabricated, and the
// in-flight bound holds. Run it under -race.
func TestRouterBatchStressWithDegradedShard(t *testing.T) {
	// A durable shard whose journal dies on the first post-boot write.
	probe, err := faults.NewFS(nil, faults.FSConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := durableServer(t, t.TempDir(), probe); err != nil {
		t.Fatal(err)
	}
	bootOps := probe.Writes()
	ffs, err := faults.NewFS(nil, faults.FSConfig{Seed: 2, CrashAfterWrites: bootOps + 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, dts, dc, err := durableServer(t, t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	trip := replayCohort(t, 2)
	if _, ierr := dc.Ingest(context.Background(), trip[0]); ierr == nil {
		t.Fatal("tripping ingest on the dying journal succeeded")
	} else {
		var ae *apiError
		if !errors.As(ierr, &ae) || ae.Code != http.StatusServiceUnavailable || ae.Kind != "read_only" {
			t.Fatalf("tripping ingest error = %v, want 503 read_only", ierr)
		}
	}

	s1, ts1, _ := testServer(t, nil)
	s2, ts2, _ := testServer(t, nil)
	cfg := DefaultRouterConfig()
	cfg.Backends = []string{ts1.URL, ts2.URL, dts.URL}
	cfg.Metrics = metrics.NewRegistry()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()
	c := NewClient(rts.URL, nil)

	items := make([]IngestRequest, 60)
	degraded := make(map[string]bool)
	healthy := 0
	for i := range items {
		id := fmt.Sprintf("stress-dev-%02d", i)
		clone := trip[i%len(trip)]
		clone.DeviceID = id
		items[i] = clone
		if rt.Ring().Owner(id) == dts.URL {
			degraded[id] = true
		} else {
			healthy++
		}
	}
	if len(degraded) == 0 || healthy == 0 {
		t.Fatalf("placement did not spread: %d degraded, %d healthy", len(degraded), healthy)
	}
	var anyDegraded, anyHealthy string
	for i := range items {
		if degraded[items[i].DeviceID] {
			anyDegraded = items[i].DeviceID
		} else {
			anyHealthy = items[i].DeviceID
		}
	}
	acts := []ActivityJSON{{ID: 1, TimeSecs: 97200, Bytes: 200000, ActiveSecs: 5}}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				start := (g*7 + iter*13) % len(items)
				end := start + 10
				if end > len(items) {
					end = len(items)
				}
				sub := append([]IngestRequest(nil), items[start:end]...)
				resp, err := c.IngestBatch(context.Background(), BatchIngestRequest{Items: sub})
				if err != nil {
					t.Errorf("goroutine %d: ingest batch: %v", g, err)
					continue
				}
				for _, res := range resp.Results {
					switch {
					case degraded[res.DeviceID]:
						if res.OK || res.Error == nil || res.Error.Kind != "read_only" {
							t.Errorf("degraded-owned item %s = %+v, want read_only failure", res.DeviceID, res)
						}
					case !res.OK:
						t.Errorf("healthy-owned item %s failed: %+v", res.DeviceID, res.Error)
					}
				}

				// The degraded shard still serves reads: scheduling for a
				// device it owns succeeds.
				sresp, err := c.ScheduleBatch(context.Background(), BatchScheduleRequest{Items: []ScheduleRequest{
					{DeviceID: anyDegraded, Gen: &GenSpec{User: "volunteer1", Days: 3}, Day: 1, Activities: acts},
					{DeviceID: anyHealthy, Gen: &GenSpec{User: "volunteer2", Days: 3}, Day: 1, Activities: acts},
				}})
				if err != nil {
					t.Errorf("goroutine %d: schedule batch: %v", g, err)
				} else if sresp.Failed != 0 {
					t.Errorf("goroutine %d: schedule batch failed %d items: %+v", g, sresp.Failed, sresp.Results)
				}

				if _, err := c.FleetReport(context.Background(), ""); err != nil {
					t.Errorf("goroutine %d: fleet report with a degraded shard: %v", g, err)
				}
				if n := rt.InFlight(); n > int64(cfg.MaxInFlight) {
					t.Errorf("router in-flight %d exceeds the %d bound", n, cfg.MaxInFlight)
				}
			}
		}(g)
	}
	wg.Wait()

	if ds.Devices() != 0 {
		t.Errorf("degraded shard applied %d devices — read_only failures were fabricated into state", ds.Devices())
	}
	if got := s1.Devices() + s2.Devices(); got != healthy {
		t.Errorf("healthy shards hold %d devices, want %d", got, healthy)
	}
}

// TestRouterIngestRejectsReservedIDs: routed ingests reach the shards'
// device-ID validation, so the router's default scrape survives them too.
func TestRouterIngestRejectsReservedIDs(t *testing.T) {
	f := routerFixture(t, 3, nil, nil)
	checkReservedIDsRejected(t, f.ts, f.client, replayCohort(t, 1)[0])
}
