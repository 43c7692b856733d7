// Command netmaster-serve runs the NetMaster pipelines as a
// long-running HTTP/JSON daemon: habit mining, scheduling, policy
// simulation and fleet telemetry behind one API.
//
// Usage:
//
//	netmaster-serve [-addr 127.0.0.1:8080] [-max-in-flight 64]
//	                [-cache-size 128] [-request-timeout 30]
//	                [-shutdown-grace 5] [-parallelism N] [-quiet]
//	                [-state-dir DIR] [-compact-every 256]
//	                [-slow-request MS] [-trace-ring N]
//	                [-slo-p99 2000] [-slo-error-rate 0.01] [-slo-window N]
//	netmaster-serve -router -backends URL,URL[,...] [-vnodes 128] [...]
//
// With -router the process serves no pipelines itself: it proxies
// /v1/* across the -backends shards by device ID on a consistent-hash
// ring, fanning fleet-wide reads out to every shard and merging them so
// a routed /v1/fleet/report is byte-identical to a single-node run.
//
// With -state-dir, every acknowledged /v1/fleet/ingest and
// /v1/profile/update is journaled (fsynced) before the response, the
// journal is periodically compacted into a snapshot, and a restart
// recovers the fleet and persisted profiles from the directory. An
// unwritable journal degrades the daemon to read-only (typed 503 on
// mutating endpoints) instead of dropping acknowledged state.
//
// Endpoints (see docs/api.md for request/response bodies):
//
//	POST /v1/mine          trace → habit profile (LRU-cached by content hash)
//	POST /v1/schedule      activities + profile → packing
//	POST /v1/simulate      trace + policy → metrics vs baseline
//	POST /v1/fleet/ingest  one device's metrics + decision trace
//	GET  /v1/fleet/report  live fleet aggregate + analysis roll-up
//	GET  /metrics          Prometheus text exposition (server + fleet)
//	GET  /healthz          liveness + fleet size + in-flight + SLO burn
//	GET  /debug/requests   recent + slowest request spans (JSON)
//	GET  /debug/pprof/     runtime profiles
//
// SIGTERM/SIGINT drains in-flight requests within -shutdown-grace and
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netmaster/internal/cliconfig"
	"netmaster/internal/metrics"
	"netmaster/internal/parallel"
	"netmaster/internal/server"
	"netmaster/internal/slo"
)

// sloConfig maps the shared CLI observability flags onto the SLO
// tracker config used by both the daemon and the router.
func sloConfig(o cliconfig.Serve) slo.Config {
	return slo.Config{
		TargetP99MS:     o.SLOP99Millis,
		TargetErrorRate: o.SLOErrorRate,
		Window:          o.SLOWindow,
	}
}

func main() {
	o := cliconfig.DefaultServe()
	o.Register(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "netmaster-serve:", err)
		os.Exit(1)
	}
}

func run(o cliconfig.Serve) error {
	if o.Parallelism > 0 {
		parallel.SetDefaultWorkers(o.Parallelism)
	}
	if o.Router {
		return runRouter(o)
	}
	cfg := server.Config{
		Addr:           o.Addr,
		MaxInFlight:    o.MaxInFlight,
		CacheSize:      o.CacheSize,
		RequestTimeout: time.Duration(o.RequestTimeoutSecs) * time.Second,
		ShutdownGrace:  time.Duration(o.ShutdownGraceSecs) * time.Second,
		Parallelism:    o.Parallelism,
		Metrics:        metrics.NewRegistry(),
		StateDir:       o.StateDir,
		CompactEvery:   o.CompactEvery,
		SlowRequest:    time.Duration(o.SlowRequestMillis) * time.Millisecond,
		TraceRing:      o.TraceRing,
		SLO:            sloConfig(o),
	}
	if !o.Quiet {
		cfg.LogWriter = os.Stderr
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	return serve(srv, "listening")
}

func runRouter(o cliconfig.Serve) error {
	cfg := server.DefaultRouterConfig()
	cfg.Addr = o.Addr
	cfg.Backends = o.BackendList()
	cfg.VNodes = o.VNodes
	cfg.MaxInFlight = o.MaxInFlight
	cfg.RequestTimeout = time.Duration(o.RequestTimeoutSecs) * time.Second
	cfg.ShutdownGrace = time.Duration(o.ShutdownGraceSecs) * time.Second
	cfg.Parallelism = o.Parallelism
	cfg.Metrics = metrics.NewRegistry()
	cfg.SlowRequest = time.Duration(o.SlowRequestMillis) * time.Millisecond
	cfg.TraceRing = o.TraceRing
	cfg.SLO = sloConfig(o)
	if !o.Quiet {
		cfg.LogWriter = os.Stderr
	}
	rt, err := server.NewRouter(cfg)
	if err != nil {
		return err
	}
	return serve(rt, fmt.Sprintf("routing %d shards", len(cfg.Backends)))
}

// listener is the lifecycle the daemon and the router share.
type listener interface {
	Start() error
	Addr() string
	Shutdown(context.Context) error
}

// serve starts l, announces what it serves on stderr, and drains it
// once SIGTERM or SIGINT arrives.
func serve(l listener, what string) error {
	if err := l.Start(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "netmaster-serve: %s on http://%s\n", what, l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "netmaster-serve: draining")
	return l.Shutdown(context.Background())
}
