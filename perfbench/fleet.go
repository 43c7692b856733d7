package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"netmaster/internal/metrics"
	"netmaster/internal/middleware"
	"netmaster/internal/power"
	"netmaster/internal/server"
	"netmaster/internal/synth"
	"netmaster/internal/trace"
	"netmaster/internal/tracing"
)

// fleetIngest is the operator's view: a durable daemon holding a fleet,
// re-ingested in batches on one connection while the other reads the
// fleet report and scrapes fleet metrics, in rounds of fixed work;
// afterwards the daemon restarts on its state directory.
type fleetIngest struct {
	n, batch int
	items    []server.IngestRequest
	batches  [][]server.IngestRequest

	t0       time.Time
	rounds   []float64 // ms per round: one full re-ingest beside one report and scrape
	roundCPU []float64 // daemon CPU ms per round
	writes   []*call   // ingest:batch calls
	acked    int
	lastEnd  time.Time
	busy     time.Duration
	gaps     []float64 // ms between a connection's answer and its next send
	reports  []*call
	scrapes  []*call
	refBody  []byte // the first timed report; every later one must equal it
	recovery time.Duration
}

const fleetDays = 7

func (w *fleetIngest) stateDir(b *bench, rep int) string {
	return filepath.Join(b.o.work, fmt.Sprintf("state-%d-%d", os.Getpid(), rep))
}

func (w *fleetIngest) daemonFlags(b *bench, rep int) []string {
	if rep > 0 {
		os.RemoveAll(w.stateDir(b, rep-1))
	}
	return []string{"-state-dir", w.stateDir(b, rep)}
}

// prepare replays every cohort spec through the middleware, cellular
// and dual-radio, and clones the 22 metric snapshots across the fleet.
func (w *fleetIngest) prepare(b *bench) error {
	w.n, w.batch = 4000, 500
	if b.tiny() {
		w.n, w.batch = 200, 50
	}
	var templates []*metrics.Snapshot
	for i, spec := range cohort() {
		for _, dual := range []bool{false, true} {
			spec := b.perturb(spec, i)
			if dual {
				spec.WiFiCoverage = wifiCoverage
			}
			tr, err := synth.Generate(spec, fleetDays)
			if err != nil {
				return err
			}
			snap, err := deviceSnapshot(tr, dual)
			if err != nil {
				return err
			}
			templates = append(templates, snap)
		}
	}
	w.items = make([]server.IngestRequest, w.n)
	for i := range w.items {
		w.items[i] = server.IngestRequest{DeviceID: fmt.Sprintf("pb/dev-%06d", i), Metrics: templates[i%len(templates)]}
	}
	for lo := 0; lo < w.n; lo += w.batch {
		w.batches = append(w.batches, w.items[lo:min(lo+w.batch, w.n)])
	}
	b.ring = len(w.batches)*(1+int(b.o.seconds)*4) + 4096
	b.prov["fleet_devices"] = w.n
	b.prov["batch_devices"] = w.batch
	b.prov["templates"] = len(templates)
	return nil
}

// deviceSnapshot replays a trace through the middleware, cellular or
// dual-radio, and returns the device's metrics snapshot: what one
// fleet device ingests.
func deviceSnapshot(tr *trace.Trace, dual bool) (*metrics.Snapshot, error) {
	cfg := middleware.DefaultReplayConfig(power.Model3G())
	if dual {
		cfg.WiFi = power.ModelWiFi()
	}
	reg := metrics.NewRegistry()
	cfg.Service.Metrics = reg
	cfg.Service.Tracing = tracing.NewSink(0)
	if _, err := middleware.Replay(tr, cfg); err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	return &snap, nil
}

// ingest sends one batch and checks its ack: every item accepted and
// the fleet at the expected size.
func (w *fleetIngest) ingest(ctx context.Context, d *daemon, items []server.IngestRequest, fleet int) error {
	resp, err := d.client.IngestBatch(ctx, server.BatchIngestRequest{Items: items})
	if err != nil {
		return err
	}
	if resp.Accepted != len(items) || resp.Failed != 0 || resp.Devices != fleet {
		return fmt.Errorf("batch acked %d of %d (failed %d), fleet %d, want %d", resp.Accepted, len(items), resp.Failed, resp.Devices, fleet)
	}
	return nil
}

func (w *fleetIngest) setup(b *bench, d *daemon) error {
	fleet := 0
	for _, batch := range w.batches {
		fleet += len(batch)
		if err := w.ingest(context.Background(), d, batch, fleet); err != nil {
			return err
		}
	}
	return nil
}

// getReport reads the fleet report as raw bytes into buf, reusing its
// storage so the generator spends little CPU beside the daemon.
func getReport(ctx context.Context, d *daemon, buf *bytes.Buffer) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/fleet/report", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("fleet report: status %d", resp.StatusCode)
	}
	return buf.Bytes(), err
}

// timed runs rounds of fixed work until the run's time is up. In each
// round connection 1 re-ingests the whole fleet in batches while
// connection 2 reads one fleet report and then scrapes fleet metrics;
// the round ends when both are done. Every round does the same work, so
// per-round figures do not depend on how the two connections race.
func (w *fleetIngest) timed(b *bench, d *daemon) error {
	ctx := context.Background()
	w.t0 = time.Now()
	deadline := w.t0.Add(time.Duration(b.o.seconds * float64(time.Second)))
	var buf bytes.Buffer
	for len(w.rounds) == 0 || time.Now().Before(deadline) {
		p0, err := d.proc()
		if err != nil {
			return err
		}
		start := time.Now()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // connection 1: the writes
			defer wg.Done()
			prev := start
			for j, batch := range w.batches {
				cctx, c := b.log.begin(ctx, "ingest_batch")
				w.gaps = append(w.gaps, durMS(c.Start.Sub(prev)))
				err := w.ingest(cctx, d, batch, w.n)
				b.log.end(c, err)
				b.attempt(1)
				prev = c.End
				w.busy += c.End.Sub(c.Start)
				w.writes = append(w.writes, c)
				if err != nil {
					b.fail("ingest batch %d: %v", j, err)
					continue
				}
				w.acked += len(batch)
			}
		}()
		go func() { // connection 2: the reads
			defer wg.Done()
			cctx, c := b.log.begin(ctx, "fleet_report")
			body, err := getReport(cctx, d, &buf)
			b.log.end(c, err)
			b.attempt(1)
			w.reports = append(w.reports, c)
			switch {
			case err != nil:
				b.fail("fleet report: %v", err)
			case w.refBody == nil:
				w.refBody = bytes.Clone(body)
			case !bytes.Equal(body, w.refBody):
				b.fail("fleet report %d differs from the first one while the fleet was unchanged", len(w.reports))
			}

			cctx, c = b.log.begin(ctx, "scrape")
			text, err := d.client.Metrics(cctx, "fleet")
			b.log.end(c, err)
			b.attempt(1)
			w.scrapes = append(w.scrapes, c)
			if err == nil && !bytes.Contains(text, []byte(fmt.Sprintf("netmaster_fleet_devices %d\n", w.n))) {
				err = fmt.Errorf("scrape does not report %d fleet devices", w.n)
			}
			if err != nil {
				b.fail("metrics scrape: %v", err)
			}
		}()
		wg.Wait()
		w.lastEnd = time.Now()
		p1, err := d.proc()
		if err != nil {
			return err
		}
		w.rounds = append(w.rounds, durMS(w.lastEnd.Sub(start)))
		w.roundCPU = append(w.roundCPU, durMS(p1.CPU-p0.CPU))
	}
	return nil
}

// after restarts the daemon on its state directory, times recovery of
// the whole fleet, and reads the report again.
func (w *fleetIngest) after(b *bench, d *daemon) (*daemon, error) {
	b.attempt(1)
	nd, recovery, err := b.restart(d, func(h *server.HealthResponse) bool { return h.Devices == w.n })
	if err != nil {
		return nd, err
	}
	w.recovery = recovery
	var buf bytes.Buffer
	body, err := getReport(context.Background(), nd, &buf)
	switch {
	case err != nil:
		b.fail("report after restart: %v", err)
	case w.refBody == nil || !bytes.Equal(body, w.refBody):
		b.fail("report after restart differs from the last report before SIGTERM")
	}
	return nd, nil
}

// fleetCounts is the part of a fleet report the count check reads.
type fleetCounts struct {
	Metrics struct {
		Devices int `json:"devices"`
	} `json:"metrics"`
	Analysis struct {
		Devices   int      `json:"devices"`
		DeviceIDs []string `json:"device_ids"`
	} `json:"analysis"`
}

// verify checks that the report counts the whole fleet; in the traced
// run it also replays ingest batches into a scratch store, and reports
// and scrapes through telemetry and analyze, and requires the replayed
// report to equal the daemon's byte for byte.
func (w *fleetIngest) verify(b *bench) {
	defer os.RemoveAll(w.stateDir(b, setupReps-1))
	if w.refBody == nil {
		b.problem("no fleet report was read")
		return
	}
	var fc fleetCounts
	if err := json.Unmarshal(w.refBody, &fc); err != nil {
		b.fail("fleet report does not decode: %v", err)
	} else if fc.Metrics.Devices != w.n || fc.Analysis.Devices != w.n || len(fc.Analysis.DeviceIDs) != w.n {
		b.fail("fleet report counts %d/%d devices (%d IDs), want %d", fc.Metrics.Devices, fc.Analysis.Devices, len(fc.Analysis.DeviceIDs), w.n)
	}
	if b.tr == nil {
		return
	}
	w.replayIngest(b)
	devs, ins := fleetInputs(w.items)
	for k := 0; k < min(2, len(w.reports)); k++ {
		rid := w.reports[k].ReqID
		root := b.tr.begin("replay.fleet_report", rid)
		body, err := replayReport(b.tr, rid, devs, ins)
		b.tr.end(root)
		if err != nil || !bytes.Equal(body, w.refBody) {
			b.fail("fleet report differs from the in-process telemetry+analyze result (err %v)", err)
		}
	}
	for k := 0; k < min(2, len(w.scrapes)); k++ {
		rid := w.scrapes[k].ReqID
		root := b.tr.begin("replay.scrape", rid)
		err := replayScrape(b.tr, rid, devs)
		b.tr.end(root)
		if err != nil {
			b.fail("in-process scrape: %v", err)
		}
	}
}

// replayIngest decodes a sample of the timed batches and appends each
// as a journal record, fsynced, to a scratch store on the same
// filesystem as the daemon's, then compacts a fleet-sized snapshot.
func (w *fleetIngest) replayIngest(b *bench) {
	st, done, err := scratchStore(b)
	if err != nil {
		b.problem("replay store: %v", err)
		return
	}
	defer done()
	sample := min(32, len(w.writes))
	for k := 0; k < sample; k++ {
		j := k * len(w.writes) / sample
		rid := w.writes[j].ReqID
		root := b.tr.begin("replay.ingest_batch", rid)
		err := replayAppend(b, b.tr, st, rid, w.batches[j%len(w.batches)], w.n)
		b.tr.end(root)
		if err != nil {
			b.problem("replay append: %v", err)
			return
		}
	}
	if err := replayCompact(b.tr, st, w.items); err != nil {
		b.problem("replay compaction: %v", err)
	}
}

func (w *fleetIngest) metrics(b *bench) int {
	var ingest, report, scrape []float64
	for _, c := range w.writes {
		if c.Err == nil {
			ingest = append(ingest, c.ms())
		}
	}
	for _, c := range w.reports {
		if c.Err == nil {
			report = append(report, c.ms())
		}
	}
	for _, c := range w.scrapes {
		if c.Err == nil {
			scrape = append(scrape, c.ms())
		}
	}
	window := w.lastEnd.Sub(w.t0).Seconds()
	if window > 0 {
		b.m["ingest_devices_per_s"] = float64(w.acked) / window
	}
	// One round acknowledges the whole fleet; the median round is
	// steadier than the mean over the window.
	b.m["throughput_per_s"] = float64(w.n) / (b.q("fleet_round", w.rounds, 0.5) / 1000)
	b.m["server_cpu_ms_per_op"] = b.q("server.cpu_ms_per_round", w.roundCPU, 0.5)
	b.m["ingest_p50_ms"] = b.q("ingest_batch", ingest, 0.5)
	b.m["ingest_p99_ms"] = b.q("ingest_batch", ingest, 0.99)
	b.m["report_p50_ms"] = b.q("fleet_report", report, 0.5)
	b.m["op_p50_ms"] = b.m["report_p50_ms"]
	b.m["scrape_p50_ms"] = b.q("scrape", scrape, 0.5)
	b.m["recovery_s"] = w.recovery.Seconds()
	b.m["loadgen.late_ms.p99"] = b.q("loadgen.send_gap_ms", w.gaps, 0.99)
	if window > 0 {
		b.m["loadgen.achieved_ratio"] = w.busy.Seconds() / window
	}
	if w.acked > 0 {
		b.m["store.write_kb_per_device"] = float64(b.writeBytes) / 1024 / float64(w.acked)
	}
	b.prov["rounds"] = len(w.rounds)
	b.prov["ingest_batches"] = len(w.writes)
	b.prov["reports"] = len(w.reports)
	b.prov["report_bytes"] = len(w.refBody)
	return len(w.rounds)
}
