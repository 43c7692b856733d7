package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"netmaster/internal/metrics"
	"netmaster/internal/middleware"
	"netmaster/internal/parallel"
	"netmaster/internal/power"
	"netmaster/internal/synth"
	"netmaster/internal/telemetry"
	"netmaster/internal/telemetry/analyze"
	"netmaster/internal/tracing"
)

// replayCohort replays the eval cohort online, producing exactly the
// observability artifacts netmaster-sim writes to an -obs-dir — but in
// memory, ready to ship to /v1/fleet/ingest.
func replayCohort(t testing.TB, days int) []IngestRequest {
	t.Helper()
	model := power.Model3G()
	var out []IngestRequest
	for _, spec := range synth.EvalCohort() {
		tr, err := synth.Generate(spec, days)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		sink := tracing.NewSink(0)
		cfg := middleware.DefaultReplayConfig(model)
		cfg.Service.Metrics = reg
		cfg.Service.Tracing = sink
		if _, err := middleware.Replay(tr, cfg); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		out = append(out, IngestRequest{
			DeviceID: spec.ID,
			Metrics:  &snap,
			Header:   sink.Header(),
			Events:   sink.Events(),
		})
	}
	return out
}

// offlineFleetDoc computes the fleet report the way the batch pipeline
// (netmaster-analyze) does, straight from the artifacts — no server.
func offlineFleetDoc(t *testing.T, ingests []IngestRequest, workers int) []byte {
	t.Helper()
	acfg := analyze.DefaultConfig()
	acfg.ActivePowerMW = power.Model3G().ActivePowerMW
	ins := make([]analyze.DeviceInput, len(ingests))
	var devs []telemetry.Device
	for i, in := range ingests {
		ins[i] = analyze.DeviceInput{ID: in.DeviceID, Header: in.Header, Events: in.Events, Metrics: in.Metrics}
		devs = append(devs, telemetry.Device{ID: in.DeviceID, Snapshot: *in.Metrics})
	}
	reports, err := parallel.MapN(workers, len(ins), func(i int) (analyze.DeviceReport, error) {
		return analyze.Device(ins[i], acfg), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := telemetry.Aggregate(devs...)
	if err != nil {
		t.Fatal(err)
	}
	doc := FleetReportResponse{Metrics: agg.Export(), Analysis: analyze.Fleet(reports)}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestReportRoundTrip: ingesting a cohort's artifacts over the
// wire and asking for the live report must reproduce the offline
// aggregation byte for byte — the live and batch pipelines are the same
// pipeline.
func TestIngestReportRoundTrip(t *testing.T) {
	ingests := replayCohort(t, 4)

	_, ts, c := testServer(t, nil)
	for _, in := range ingests {
		ack, err := c.Ingest(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if ack.DeviceID != in.DeviceID {
			t.Errorf("ack for %s, sent %s", ack.DeviceID, in.DeviceID)
		}
	}
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Devices != len(ingests) {
		t.Fatalf("fleet size %d, ingested %d", h.Devices, len(ingests))
	}

	live := get(t, ts, "/v1/fleet/report")
	for _, workers := range []int{1, 8} {
		offline := offlineFleetDoc(t, ingests, workers)
		if !bytes.Equal(live, offline) {
			t.Errorf("live report differs from offline aggregation (offline workers=%d)\nlive:\n%s\noffline:\n%s",
				workers, live, offline)
		}
	}

	// Re-ingesting a device replaces, not duplicates.
	if ack, err := c.Ingest(context.Background(), ingests[0]); err != nil {
		t.Fatal(err)
	} else if ack.Devices != len(ingests) {
		t.Errorf("re-ingest grew the fleet to %d", ack.Devices)
	}
	if again := get(t, ts, "/v1/fleet/report"); !bytes.Equal(live, again) {
		t.Error("re-ingesting identical artifacts changed the report")
	}
}

// TestIngestRejectsAnonymous: a device_id is mandatory.
func TestIngestRejectsAnonymous(t *testing.T) {
	_, _, c := testServer(t, nil)
	if _, err := c.Ingest(context.Background(), IngestRequest{}); err == nil {
		t.Fatal("ingest without device_id accepted")
	}
}

// checkReservedIDsRejected ingests the reserved device IDs through c —
// singly and in one batch beside a valid device — expecting a 400 and
// per-item bad_request errors, then requires the default /metrics scrape
// at ts to still answer.
func checkReservedIDsRejected(t *testing.T, ts *httptest.Server, c *Client, valid IngestRequest) {
	t.Helper()
	ctx := context.Background()
	for _, id := range []string{"server", "router"} {
		in := valid
		in.DeviceID = id
		_, err := c.Ingest(ctx, in)
		var ae *apiError
		if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest || ae.Kind != "bad_request" {
			t.Fatalf("ingest of reserved %q: err %v, want 400 bad_request", id, err)
		}
	}
	server, router := valid, valid
	server.DeviceID, router.DeviceID = "server", "router"
	resp, err := c.IngestBatch(ctx, BatchIngestRequest{Items: []IngestRequest{server, valid, router}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || !resp.Results[1].OK {
		t.Fatalf("valid item not accepted: %+v", resp.Results)
	}
	for _, i := range []int{0, 2} {
		if r := resp.Results[i]; r.OK || r.Error == nil || r.Error.Kind != "bad_request" {
			t.Errorf("reserved item %d result = %+v, want bad_request", i, r)
		}
	}
	get(t, ts, "/metrics")
}

// TestIngestRejectsReservedIDs: the IDs /metrics gives the process's own
// registry cannot be ingested, so no device can break the default
// scrape with a duplicate.
func TestIngestRejectsReservedIDs(t *testing.T) {
	_, ts, c := testServer(t, nil)
	checkReservedIDsRejected(t, ts, c, replayCohort(t, 1)[0])
}
