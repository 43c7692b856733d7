// Command netmaster-bench load-tests the serve tier: it synthesises an
// N-device cohort (reusing internal/synth's seeded volunteers as
// templates), drives it through POST /v1/fleet/ingest:batch at a fixed
// concurrency against a daemon or a -router front end, probes the
// merged fleet read path, and reports throughput, exact p50/p90/p99
// request latencies and the error rate against configurable SLOs.
// After the load phase it scrapes the target's raw metrics snapshot so
// the report also carries the server-observed per-endpoint quantiles
// and SLO burn state next to the client-side view.
//
// Usage:
//
//	netmaster-bench [-target http://127.0.0.1:8080] [-devices 100000]
//	                [-batch 500] [-concurrency 32] [-duration 10s]
//	                [-format text|json] [-out BENCH_serve.json]
//	                [-slo-error-rate 0.01] [-slo-p99 5000]
//
// Without -target the bench self-hosts an in-memory daemon, making the
// committed BENCH_serve.json reproducible with one command. The exit
// status is 1 when an SLO is violated, so CI can gate on it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netmaster/internal/cliconfig"
	"netmaster/internal/metrics"
	"netmaster/internal/middleware"
	"netmaster/internal/power"
	"netmaster/internal/server"
	"netmaster/internal/slo"
	"netmaster/internal/stats"
	"netmaster/internal/synth"
	"netmaster/internal/tracing"
)

// Quantiles are exact (ceil-rank) order statistics over the recorded
// per-request latencies, in milliseconds.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// SLO records the configured ceilings and whether the run met them.
type SLO struct {
	MaxErrorRate float64 `json:"max_error_rate"`
	MaxP99Millis float64 `json:"max_p99_ms"`
	Pass         bool    `json:"pass"`
}

// EndpointLatency is one endpoint's server-side latency view,
// interpolated from the target's own per-endpoint histogram after the
// load phase. Unlike the client-side Quantiles these include the
// target's queueing but not the network or the bench's own scheduling.
type EndpointLatency struct {
	Endpoint string  `json:"endpoint"`
	Requests int64   `json:"requests"`
	P50      float64 `json:"p50"`
	P90      float64 `json:"p90"`
	P99      float64 `json:"p99"`
}

// ServerStats is the server-side half of the report, scraped from the
// target's raw metrics snapshot: per-endpoint latency quantiles plus
// the SLO burn state, so client- and server-observed latency can be
// compared in one document.
type ServerStats struct {
	Role            string            `json:"role"` // "server" or "router"
	Endpoints       []EndpointLatency `json:"endpoints"`
	SLORequests     int64             `json:"slo_requests"`
	SLOErrors       int64             `json:"slo_errors"`
	ErrorBurnRate   float64           `json:"error_burn_rate"`
	LatencyBurnRate float64           `json:"latency_burn_rate"`
}

// Result is the bench report. The JSON form is the schema of the
// committed BENCH_serve.json; a round-trip test pins it.
type Result struct {
	Target         string    `json:"target"` // "self" or the -target URL
	Devices        int       `json:"devices"`
	BatchSize      int       `json:"batch_size"`
	Concurrency    int       `json:"concurrency"`
	Requests       int64     `json:"requests"`
	Errors         int64     `json:"errors"`
	ItemFailures   int64     `json:"item_failures"`
	ErrorRate      float64   `json:"error_rate"`
	ElapsedMS      float64   `json:"elapsed_ms"`
	DevicesPerSec  float64   `json:"devices_per_sec"`
	RequestsPerSec float64   `json:"requests_per_sec"`
	Latency        Quantiles `json:"latency_ms"`
	FleetReadMS    float64   `json:"fleet_read_ms"`
	FleetDevices   int       `json:"fleet_devices"`
	SLO            SLO       `json:"slo"`
	// Server is the target's own view of the run (absent when the
	// target does not expose a raw metrics snapshot).
	Server *ServerStats `json:"server,omitempty"`
}

func main() {
	o := cliconfig.DefaultBench()
	o.Register(flag.CommandLine)
	flag.Parse()
	res, err := runBench(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netmaster-bench:", err)
		os.Exit(1)
	}
	if err := emit(o, res, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netmaster-bench:", err)
		os.Exit(1)
	}
	if !res.SLO.Pass {
		fmt.Fprintln(os.Stderr, "netmaster-bench: SLO violated")
		os.Exit(1)
	}
}

// buildCohort replays the seeded eval volunteers once and clones their
// metric snapshots across n synthetic device IDs — full telemetry per
// device without paying for n trace replays. With a Wi-Fi model the
// templates replay dual-radio: each trace carries cov coverage and the
// middleware pools deferred batches onto the NIC, so the ingested
// snapshots exercise the dual-radio metric surface.
func buildCohort(n, days int, wifi *power.WiFiModel, cov float64) ([]server.IngestRequest, error) {
	model := power.Model3G()
	var templates []*metrics.Snapshot
	for _, spec := range synth.EvalCohort() {
		if wifi != nil && cov > 0 {
			spec.WiFiCoverage = cov
		}
		tr, err := synth.Generate(spec, days)
		if err != nil {
			return nil, err
		}
		reg := metrics.NewRegistry()
		cfg := middleware.DefaultReplayConfig(model)
		cfg.WiFi = wifi
		cfg.Service.Metrics = reg
		cfg.Service.Tracing = tracing.NewSink(0)
		if _, err := middleware.Replay(tr, cfg); err != nil {
			return nil, err
		}
		snap := reg.Snapshot()
		templates = append(templates, &snap)
	}
	out := make([]server.IngestRequest, n)
	for i := range out {
		out[i] = server.IngestRequest{
			DeviceID: fmt.Sprintf("bench/dev-%06d", i),
			Metrics:  templates[i%len(templates)],
		}
	}
	return out, nil
}

// batches splits [0, n) into half-open index ranges of at most size.
func batches(n, size int) [][2]int {
	var out [][2]int
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

func runBench(o cliconfig.Bench, logw io.Writer) (Result, error) {
	if o.Devices <= 0 || o.Batch <= 0 || o.Concurrency <= 0 {
		return Result{}, fmt.Errorf("devices, batch and concurrency must be positive")
	}
	wifi, err := o.WiFi.Resolve()
	if err != nil {
		return Result{}, err
	}
	cohort, err := buildCohort(o.Devices, o.Days, wifi, o.WiFiCoverage)
	if err != nil {
		return Result{}, err
	}

	target := o.Target
	label := target
	if target == "" {
		// Self-host an in-memory daemon sized so admission control never
		// sheds the bench's own concurrency.
		maxIF := 64
		if 2*o.Concurrency > maxIF {
			maxIF = 2 * o.Concurrency
		}
		srv, err := server.New(server.Config{
			Addr:           "127.0.0.1:0",
			MaxInFlight:    maxIF,
			CacheSize:      128,
			RequestTimeout: 120 * time.Second,
			ShutdownGrace:  time.Second,
			Parallelism:    o.Parallelism,
			Metrics:        metrics.NewRegistry(),
			// Burn tracking on the self-hosted daemon mirrors the bench's
			// own SLO flags, so the scraped server block reports burn
			// against the same objectives the exit status gates on.
			SLO: slo.Config{TargetP99MS: o.SLOP99Millis, TargetErrorRate: o.SLOErrorRate},
		})
		if err != nil {
			return Result{}, err
		}
		if err := srv.Start(); err != nil {
			return Result{}, err
		}
		defer func() {
			srv.Shutdown(context.Background())
			srv.Close()
		}()
		target = "http://" + srv.Addr()
		label = "self"
	}
	client := server.NewClient(target, nil)
	ctx := context.Background()

	work := batches(len(cohort), o.Batch)
	fmt.Fprintf(logw, "netmaster-bench: %d devices in %d batches of %d against %s, concurrency %d\n",
		o.Devices, len(work), o.Batch, label, o.Concurrency)

	var (
		next         atomic.Int64
		errs         atomic.Int64
		itemFailures atomic.Int64
		latMu        sync.Mutex
		latencies    []float64
	)
	start := time.Now()
	deadline := time.Time{}
	if o.Duration > 0 {
		deadline = start.Add(o.Duration)
	}
	var wg sync.WaitGroup
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				pass := int(n) / len(work)
				// Every batch runs at least once; extra passes re-ingest
				// the same cohort until the duration budget is spent.
				if pass > 0 && (deadline.IsZero() || time.Now().After(deadline)) {
					return
				}
				rng := work[int(n)%len(work)]
				req := server.BatchIngestRequest{
					RequestID: fmt.Sprintf("bench-%d", n),
					Items:     cohort[rng[0]:rng[1]],
				}
				t0 := time.Now()
				resp, err := client.IngestBatch(ctx, req)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					errs.Add(1)
					continue
				}
				itemFailures.Add(int64(resp.Failed))
				latMu.Lock()
				latencies = append(latencies, ms)
				latMu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	requests := next.Load()
	// Workers over-draw the counter by up to Concurrency when they bail
	// out on the pass boundary; only issued requests count.
	if issued := int64(len(latencies)) + errs.Load(); issued < requests {
		requests = issued
	}
	sort.Float64s(latencies)

	// The read probe: the merged fleet exposition (on a router this fans
	// out to every shard), plus the health document for the fleet size.
	t0 := time.Now()
	if _, err := client.Metrics(ctx, "fleet"); err != nil {
		return Result{}, fmt.Errorf("fleet metrics probe: %w", err)
	}
	fleetReadMS := float64(time.Since(t0)) / float64(time.Millisecond)
	fleetDevices, err := probeDevices(ctx, client)
	if err != nil {
		return Result{}, fmt.Errorf("health probe: %w", err)
	}

	res := Result{
		Target:       label,
		Devices:      o.Devices,
		BatchSize:    o.Batch,
		Concurrency:  o.Concurrency,
		Requests:     requests,
		Errors:       errs.Load(),
		ItemFailures: itemFailures.Load(),
		ElapsedMS:    float64(elapsed) / float64(time.Millisecond),
		Latency: Quantiles{
			P50: stats.SortedQuantile(latencies, 0.50),
			P90: stats.SortedQuantile(latencies, 0.90),
			P99: stats.SortedQuantile(latencies, 0.99),
			Max: stats.SortedQuantile(latencies, 1.00),
		},
		FleetReadMS:  fleetReadMS,
		FleetDevices: fleetDevices,
		SLO:          SLO{MaxErrorRate: o.SLOErrorRate, MaxP99Millis: o.SLOP99Millis},
	}
	if requests > 0 {
		res.ErrorRate = float64(res.Errors) / float64(requests)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		devicesDone := (requests - res.Errors) * int64(o.Batch)
		if devicesDone > int64(o.Devices) && o.Duration == 0 {
			devicesDone = int64(o.Devices)
		}
		res.DevicesPerSec = float64(devicesDone) / secs
		res.RequestsPerSec = float64(requests) / secs
	}
	res.SLO.Pass = res.ErrorRate <= o.SLOErrorRate && res.Latency.P99 <= o.SLOP99Millis
	if stats, err := scrapeServer(ctx, client); err != nil {
		// Non-fatal: an older target without the raw-snapshot endpoint
		// still yields the client-side report.
		fmt.Fprintf(logw, "netmaster-bench: server scrape skipped: %v\n", err)
	} else {
		res.Server = stats
	}
	return res, nil
}

// scrapeServer reads the target's raw metrics snapshot and distils the
// server-side view: per-endpoint latency quantiles (interpolated from
// the exact merge-stable histogram buckets) and the SLO burn state.
func scrapeServer(ctx context.Context, c *server.Client) (*ServerStats, error) {
	snap, err := c.MetricsSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	stats := &ServerStats{Role: "server"}
	if _, ok := snap.Counters["router_requests_total"]; ok {
		stats.Role = "router"
	}
	prefix := stats.Role + "_http_"
	for name, hs := range snap.Histograms {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, "_latency_ms") {
			continue
		}
		endpoint := strings.TrimSuffix(strings.TrimPrefix(name, prefix), "_latency_ms")
		if hs.Count == 0 {
			continue
		}
		ep := EndpointLatency{
			Endpoint: endpoint,
			Requests: snap.Counters[prefix+endpoint+"_requests_total"],
		}
		for _, q := range []struct {
			q   float64
			dst *float64
		}{{0.50, &ep.P50}, {0.90, &ep.P90}, {0.99, &ep.P99}} {
			v, err := slo.HistogramQuantile(hs, q.q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			*q.dst = v
		}
		stats.Endpoints = append(stats.Endpoints, ep)
	}
	sort.Slice(stats.Endpoints, func(i, j int) bool {
		return stats.Endpoints[i].Endpoint < stats.Endpoints[j].Endpoint
	})
	stats.SLORequests = snap.Counters[stats.Role+"_slo_requests_total"]
	stats.SLOErrors = snap.Counters[stats.Role+"_slo_errors_total"]
	stats.ErrorBurnRate = snap.Gauges[stats.Role+"_slo_error_burn_rate"]
	stats.LatencyBurnRate = snap.Gauges[stats.Role+"_slo_latency_burn_rate"]
	return stats, nil
}

// probeDevices reads the fleet size out of /healthz; the loose decode
// covers both the daemon's and the router's health document.
func probeDevices(ctx context.Context, c *server.Client) (int, error) {
	h, err := c.Healthz(ctx)
	if err != nil {
		return 0, err
	}
	return h.Devices, nil
}

// renderJSON is the canonical machine form (and BENCH_serve.json's
// content): two-space indent, trailing newline.
func renderJSON(w io.Writer, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// renderText is the human form.
func renderText(w io.Writer, r Result) error {
	verdict := "FAIL"
	if r.SLO.Pass {
		verdict = "PASS"
	}
	_, err := fmt.Fprintf(w,
		"target:      %s\n"+
			"cohort:      %d devices, batches of %d, concurrency %d\n"+
			"requests:    %d (%d errors, %d item failures, error rate %.4f)\n"+
			"elapsed:     %.1f ms\n"+
			"throughput:  %.1f devices/s (%.1f req/s)\n"+
			"latency ms:  p50 %.1f  p90 %.1f  p99 %.1f  max %.1f\n"+
			"fleet read:  %.1f ms (%d devices)\n"+
			"SLO:         %s (error rate <= %.4f, p99 <= %.1f ms)\n",
		r.Target, r.Devices, r.BatchSize, r.Concurrency,
		r.Requests, r.Errors, r.ItemFailures, r.ErrorRate,
		r.ElapsedMS, r.DevicesPerSec, r.RequestsPerSec,
		r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.Max,
		r.FleetReadMS, r.FleetDevices,
		verdict, r.SLO.MaxErrorRate, r.SLO.MaxP99Millis)
	if err != nil || r.Server == nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "server side: role %s, slo burn error %.3f latency %.3f (%d reqs, %d errors)\n",
		r.Server.Role, r.Server.ErrorBurnRate, r.Server.LatencyBurnRate,
		r.Server.SLORequests, r.Server.SLOErrors); err != nil {
		return err
	}
	for _, ep := range r.Server.Endpoints {
		if _, err := fmt.Fprintf(w, "  %-16s p50 %.1f  p90 %.1f  p99 %.1f  (%d reqs)\n",
			ep.Endpoint, ep.P50, ep.P90, ep.P99, ep.Requests); err != nil {
			return err
		}
	}
	return nil
}

// emit writes the report in the selected format to stdout and -out.
func emit(o cliconfig.Bench, res Result, stdout io.Writer) error {
	render := renderText
	if o.Format == "json" {
		render = renderJSON
	} else if o.Format != "text" {
		return fmt.Errorf("unknown format %q (want text or json)", o.Format)
	}
	if err := render(stdout, res); err != nil {
		return err
	}
	if o.Out != "" {
		f, err := os.Create(o.Out)
		if err != nil {
			return err
		}
		if err := render(f, res); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
