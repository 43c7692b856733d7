package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"netmaster/internal/power"
	"netmaster/internal/server"
	"netmaster/internal/store"
	"netmaster/internal/telemetry"
	"netmaster/internal/telemetry/analyze"
)

// walRecord mirrors the daemon's journal entry for an ingest batch, so
// the replayed append writes a record of the same size.
type walRecord struct {
	Kind      string                 `json:"kind"`
	RequestID string                 `json:"request_id,omitempty"`
	Items     []server.IngestRequest `json:"items,omitempty"`
	Ack       []byte                 `json:"ack,omitempty"`
}

// fleetInputs turns ingested items into the telemetry and analyze inputs
// of a fleet report, in the daemon's sorted-ID order.
func fleetInputs(items []server.IngestRequest) ([]telemetry.Device, []analyze.DeviceInput) {
	sorted := append([]server.IngestRequest(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].DeviceID < sorted[j].DeviceID })
	devs := make([]telemetry.Device, len(sorted))
	ins := make([]analyze.DeviceInput, len(sorted))
	for i, it := range sorted {
		devs[i] = telemetry.Device{ID: it.DeviceID, Snapshot: *it.Metrics}
		ins[i] = analyze.DeviceInput{ID: it.DeviceID, Header: it.Header, Events: it.Events, Metrics: it.Metrics}
	}
	return devs, ins
}

// replayReport builds the fleet report body in-process: telemetry
// aggregate and export, per-device and fleet analysis, then the
// daemon's JSON encoding.
func replayReport(tr *tracer, rid string, devs []telemetry.Device, ins []analyze.DeviceInput) ([]byte, error) {
	var agg *telemetry.Agg
	var err error
	tr.do("telemetry.aggregate", rid, func() { agg, err = telemetry.Aggregate(devs...) })
	if err != nil {
		return nil, err
	}
	var doc server.FleetReportResponse
	tr.do("telemetry.export", rid, func() { doc.Metrics = agg.Export() })
	acfg := analyze.DefaultConfig()
	acfg.ActivePowerMW = power.Model3G().ActivePowerMW
	reports := make([]analyze.DeviceReport, len(ins))
	id := tr.begin("analyze.devices", rid)
	for i := range ins {
		reports[i] = analyze.Device(ins[i], acfg)
	}
	tr.attr(id, "devices", float64(len(ins)))
	tr.end(id)
	tr.do("analyze.fleet", rid, func() { doc.Analysis = analyze.Fleet(reports) })
	var body []byte
	tr.do("server.encode.fleet_report", rid, func() { body, err = encodeIndented(doc) })
	return body, err
}

// replayScrape renders the fleet-scope Prometheus exposition in-process.
func replayScrape(tr *tracer, rid string, devs []telemetry.Device) error {
	var agg *telemetry.Agg
	var err error
	tr.do("telemetry.aggregate", rid, func() { agg, err = telemetry.Aggregate(devs...) })
	if err != nil {
		return err
	}
	var fs telemetry.FleetSnapshot
	tr.do("telemetry.export", rid, func() { fs = agg.Export() })
	tr.do("telemetry.prom", rid, func() { err = telemetry.WriteProm(io.Discard, "netmaster_", fs) })
	return err
}

// replayAppend decodes one ingest batch as the daemon does, encodes its
// ack and journal record, and appends the record, fsynced, to st.
func replayAppend(b *bench, tr *tracer, st *store.Store, rid string, items []server.IngestRequest, fleet int) error {
	var in server.BatchIngestRequest
	replayDecode(b, tr, "ingest_batch", rid, server.BatchIngestRequest{Items: items}, &in)
	ack := server.BatchIngestResponse{Accepted: len(in.Items), Devices: fleet}
	for _, it := range in.Items {
		ack.Results = append(ack.Results, server.BatchIngestResult{DeviceID: it.DeviceID, OK: true})
	}
	var ackBytes, payload []byte
	var err error
	tr.do("server.encode.ingest_batch", rid, func() { ackBytes, err = encodeIndented(ack) })
	if err != nil {
		return err
	}
	tr.do("store.encode_record", rid, func() {
		payload, err = json.Marshal(&walRecord{Kind: "ingest_batch", Items: in.Items, Ack: ackBytes})
	})
	if err != nil {
		return err
	}
	tr.do("store.append", rid, func() { _, err = st.Append(payload) })
	return err
}

// replayCompact snapshots a fleet of items into st, as the daemon's
// compaction does.
func replayCompact(tr *tracer, st *store.Store, items []server.IngestRequest) error {
	type snapDevice struct {
		DeviceID string                `json:"device_id"`
		Ingest   *server.IngestRequest `json:"ingest"`
	}
	doc := struct {
		Devices  []snapDevice `json:"devices"`
		Profiles []any        `json:"profiles"`
	}{Profiles: []any{}}
	for i := range items {
		doc.Devices = append(doc.Devices, snapDevice{DeviceID: items[i].DeviceID, Ingest: &items[i]})
	}
	payload, err := json.Marshal(doc)
	if err == nil {
		tr.do("store.compact", "", func() { err = st.Compact(payload) })
	}
	return err
}

// scratchStore opens a store in a fresh directory under the work
// directory, on the same filesystem as the daemon's state; done closes
// and removes it.
func scratchStore(b *bench) (*store.Store, func(), error) {
	dir := filepath.Join(b.o.work, fmt.Sprintf("replay-store-%d", os.Getpid()))
	os.RemoveAll(dir)
	st, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	return st, func() { st.Close(); os.RemoveAll(dir) }, nil
}
