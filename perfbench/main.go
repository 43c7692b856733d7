// Command perfbench is the serve-tier benchmark. It launches
// netmaster-serve as a child process, drives one named workload against
// it through server.Client, checks every response against an in-process
// oracle, and prints one JSON result line last on standard output.
//
//	perfbench -serve BIN -work DIR -workload device-sync|what-if|fleet-ingest
//	          -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics. With -trace 1
// the same workload and seed run again with client spans joined to the
// daemon's spans, then every request's work is replayed in-process, one
// thread, on an idle daemon; the result carries the per-layer metrics
// and a span file is written under -work. perfbench/run.sh builds both
// binaries and is the usual entry point.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netmaster/internal/server"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // small sizes, for the benchmark's own test
	serveBin string
	work     string
}

// workload is one named traffic mix.
type workload interface {
	// daemonFlags are the workload's own netmaster-serve flags.
	daemonFlags(b *bench, rep int) []string
	// prepare synthesises every input before the first daemon starts;
	// it is not part of set-up time.
	prepare(b *bench) error
	// setup brings a fresh daemon to the state the timed phase needs.
	setup(b *bench, d *daemon) error
	// timed runs the measured phase.
	timed(b *bench, d *daemon) error
	// after runs once the timed phase is measured; it may replace the
	// daemon (a restart), returning the one left to stop.
	after(b *bench, d *daemon) (*daemon, error)
	// verify checks every response in-process, recording replay spans
	// when b.tr is set.
	verify(b *bench)
	// metrics adds the workload's own metrics; ops is the number of
	// timed operations completed.
	metrics(b *bench) (ops int)
}

// bench is one run: options, the result being assembled, and the
// provenance that travels with it.
type bench struct {
	o     options
	conns int
	w     workload
	log   *callLog
	tr    *tracer

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string

	m      map[string]float64
	quants []quant
	prov   map[string]any
	joined map[string]joinedSpan
	ring   int
	// writeBytes is what the daemon wrote to storage in the timed phase.
	writeBytes int64
}

// joinedSpan is one daemon span matched to the client call it served.
type joinedSpan struct {
	handleMS, queueMS, totalMS float64
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "device-sync, what-if or fleet-ingest")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	flag.StringVar(&o.serveBin, "serve", "", "netmaster-serve binary")
	flag.StringVar(&o.work, "work", "", "scratch directory for state, spans and reports")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output checks failed")
		os.Exit(1)
	}
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "device-sync":
		return &deviceSync{}, nil
	case "what-if":
		return &whatIf{}, nil
	case "fleet-ingest":
		return &fleetIngest{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want device-sync, what-if or fleet-ingest)", name)
}

// run executes one benchmark run and prints its report and result.
func run(o options, out io.Writer) (result, error) {
	if o.serveBin == "" || o.work == "" {
		return result{}, errors.New("-serve and -work are required")
	}
	if o.seconds <= 0 {
		return result{}, errors.New("-seconds must be positive")
	}
	if _, err := os.Stat(o.serveBin); err != nil {
		return result{}, err
	}
	w, err := newWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	b := &bench{
		o:     o,
		conns: min(2, runtime.NumCPU()),
		w:     w,
		log:   &callLog{prefix: fmt.Sprintf("pb-%s-%d-%d", o.workload, o.seed, os.Getpid())},
		m:     map[string]float64{},
		prov:  map[string]any{},
	}
	if o.trace {
		b.tr = newTracer()
	}
	if err := b.execute(); err != nil {
		return result{}, err
	}
	return b.emit(out)
}

// fail records a failed operation (an error answer or a failed check).
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// problem records a failed check of an operation already counted as
// failed, or of the run as a whole.
func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) attempt(n int) {
	b.mu.Lock()
	b.attempted += n
	b.mu.Unlock()
}

func (b *bench) tiny() bool { return b.o.tiny }

// rng derives a deterministic stream for one purpose from the seed.
func (b *bench) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(b.o.seed*1_000_003 + purpose))
}

func (b *bench) daemonFlags(rep int) []string {
	flags := []string{"-quiet", "-trace-ring", fmt.Sprint(b.ring), "-parallelism", fmt.Sprint(runtime.NumCPU())}
	return append(flags, b.w.daemonFlags(b, rep)...)
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

func (b *bench) execute() error {
	if err := b.w.prepare(b); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	ctx := context.Background()
	var setups []float64
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		d, err = startDaemon(b.o.serveBin, b.daemonFlags(rep), b.conns)
		if err != nil {
			return err
		}
		if err := b.w.setup(b, d); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			if err := d.stop(); err != nil {
				return err
			}
			d = nil
		}
	}
	b.m["setup_s"] = median(setups)
	b.prov["setup_s_each"] = setups
	b.prov["daemon_flags"] = d.flags

	before, err := d.state(ctx)
	if err != nil {
		return err
	}
	stopRSS := make(chan struct{})
	rss := d.sampleRSS(stopRSS)
	err = b.w.timed(b, d)
	close(stopRSS)
	rssMB := <-rss
	for i := range rssMB {
		rssMB[i] /= 1024
	}
	b.m["server_rss_mb"] = b.q("server.rss_mb", rssMB, 0.1)
	b.q("server.rss_mb", rssMB, 0.5)
	b.q("server.rss_mb", rssMB, 0.9)
	if err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	after, err := d.state(ctx)
	if err != nil {
		return err
	}
	var pr *probe
	if b.tr != nil {
		if pr, err = newProbe(b); err != nil {
			return err
		}
		if err := pr.http(b, d); err != nil {
			return err
		}
	}
	if err := b.joinSpans(ctx, d); err != nil {
		return err
	}
	nd, err := b.w.after(b, d)
	d = nd
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	d = nil

	b.w.verify(b)
	if pr != nil {
		pr.layers(b)
	}
	b.writeBytes = after.proc.WriteBytes - before.proc.WriteBytes
	ops := b.w.metrics(b)
	b.serverMetrics(before, after, ops)
	if b.tr != nil {
		b.tr.addCalls(b)
		b.tr.selfTimes()
		b.tr.layerMetrics(b)
	}
	return nil
}

// restart stops d and launches the daemon again with the same flags. It
// returns the new daemon and the time from launch until /healthz
// satisfies ready.
func (b *bench) restart(d *daemon, ready func(*server.HealthResponse) bool) (*daemon, time.Duration, error) {
	if err := d.stop(); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	nd, err := startDaemon(b.o.serveBin, d.flags[2:], b.conns)
	if err != nil {
		return nil, 0, err
	}
	for {
		h, err := nd.ctl.Healthz(context.Background())
		if err == nil && ready(h) {
			return nd, time.Since(t0), nil
		}
		if time.Since(t0) > time.Minute {
			return nd, 0, fmt.Errorf("restarted daemon not ready after a minute")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// probeRestart is the restart of a workload whose daemon keeps no
// state: in the traced run it times a plain restart, so recovery_s is
// measured on every workload.
func (b *bench) probeRestart(d *daemon) (*daemon, error) {
	if b.tr == nil {
		return d, nil
	}
	nd, recovery, err := b.restart(d, func(*server.HealthResponse) bool { return true })
	b.m["recovery_s"] = recovery.Seconds()
	return nd, err
}

// joinSpans fetches the daemon's span ring and matches each span to the
// timed call that carried its request ID.
func (b *bench) joinSpans(ctx context.Context, d *daemon) error {
	dbg, err := d.ctl.DebugRequests(ctx, b.ring)
	if err != nil {
		return err
	}
	if dbg.Dropped != 0 {
		return fmt.Errorf("daemon span ring dropped %d spans (capacity %d)", dbg.Dropped, dbg.Capacity)
	}
	b.prov["span_ring"] = map[string]any{"capacity": dbg.Capacity, "total": dbg.Total, "dropped": dbg.Dropped}
	b.joined = map[string]joinedSpan{}
	for _, sp := range dbg.Recent {
		b.joined[sp.RequestID] = joinedSpan{handleMS: sp.HandleMS, queueMS: sp.QueueWaitMS, totalMS: sp.TotalMS}
	}
	return nil
}

// serverMetrics derives the end-to-end daemon metrics and the HTTP-side
// per-layer metrics from the two outside readings around the timed phase
// and the joined spans.
func (b *bench) serverMetrics(before, after daemonState, ops int) {
	if ops < 1 {
		ops = 1
	}
	delta := func(name string) float64 { return float64(after.counters[name] - before.counters[name]) }
	// fleet-ingest has set the median over its rounds already.
	if _, ok := b.m["server_cpu_ms_per_op"]; !ok {
		b.m["server_cpu_ms_per_op"] = durMS(after.proc.CPU-before.proc.CPU) / float64(ops)
	}
	b.m["server.rss_peak_mb"] = float64(after.proc.HWMKB) / 1024
	b.m["server.alloc_mb_per_op"] = float64(after.alloc-before.alloc) / (1 << 20) / float64(ops)
	b.m["server.gc_per_op"] = float64(after.gcs-before.gcs) / float64(ops)
	b.m["server.rejected"] = delta("server_rejected_total")
	b.m["server.errors"] = delta("server_errors_total")
	b.m["store.appends"] = delta("server_store_appends_total")
	b.m["store.compactions"] = delta("server_store_compactions_total")
	hits, misses := delta("server_profile_cache_hits_total"), delta("server_profile_cache_misses_total")
	if hits+misses > 0 {
		b.m["server.profile_cache.hit_ratio"] = hits / (hits + misses)
	}
	b.prov["daemon_write_bytes"] = b.writeBytes

	for _, ep := range []string{"profile_update", "schedule", "simulate", "ingest_batch", "fleet_report"} {
		calls := b.log.byEndpoint(ep)
		if len(calls) == 0 {
			continue
		}
		var handle, outside, reqKB, respKB []float64
		for _, c := range calls {
			reqKB = append(reqKB, float64(c.ReqBytes)/1024)
			respKB = append(respKB, float64(c.RespBytes)/1024)
			sp, ok := b.joined[c.ReqID]
			if !ok || c.Err != nil {
				continue
			}
			handle = append(handle, sp.handleMS)
			outside = append(outside, c.ms()-sp.totalMS)
		}
		if len(handle) < len(calls) {
			b.problem("%s: %d of %d calls have no daemon span", ep, len(calls)-len(handle), len(calls))
		}
		b.m["server.handle_ms."+ep+".p50"] = b.q("server.handle_ms."+ep, handle, 0.5)
		b.m["server.handle_ms."+ep+".p99"] = b.q("server.handle_ms."+ep, handle, 0.99)
		b.m["server.outside_ms."+ep+".p50"] = b.q("server.outside_ms."+ep, outside, 0.5)
		b.m["server.request_kb."+ep] = mean(reqKB)
		b.m["server.response_kb."+ep] = mean(respKB)
	}
}

// q computes and records a quantile, returning its value.
func (b *bench) q(name string, xs []float64, q float64) float64 {
	qq := quantile(name, append([]float64(nil), xs...), q)
	b.quants = append(b.quants, qq)
	return qq.Value
}

// emit prints the human-readable report, then the result line.
func (b *bench) emit(out io.Writer) (result, error) {
	b.m["failed_ratio"] = float64(b.failed) / float64(max(b.attempted, 1))
	b.provenance()
	res := result{
		Correct:   b.failed == 0 && len(b.problems) == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if b.o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: b.m[d.Name], Unit: d.Unit}
	}

	fmt.Fprintf(out, "perfbench %s seed %d, %gs, trace %v\n", b.o.workload, b.o.seed, b.o.seconds, b.o.trace)
	keys := make([]string, 0, len(b.prov))
	for k := range b.prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, _ := json.Marshal(b.prov[k])
		fmt.Fprintf(out, "  %-22s %s\n", k, v)
	}
	fmt.Fprintln(out, "quantiles (exact, nearest rank):")
	for _, q := range b.quants {
		if q.N > 0 {
			fmt.Fprintf(out, "  %-40s p%-4g %10.3f  n=%d beyond=%d\n", q.Name, q.Q*100, q.Value, q.N, q.Beyond)
		}
	}
	if m, ok := opMeaning[b.o.workload]; ok {
		fmt.Fprintf(out, "op_p50_ms is %s; throughput_per_s is %s; server_cpu_ms_per_op is per %s\n", m[0], m[1], m[2])
	}
	if b.tr != nil {
		b.tr.report(b, out)
	}
	for _, p := range b.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	if err := b.writeReport(res); err != nil {
		return res, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// provenance records what produced the numbers.
func (b *bench) provenance() {
	b.prov["seed"] = b.o.seed
	b.prov["workload"] = b.o.workload
	b.prov["tiny"] = b.o.tiny
	b.prov["seconds"] = b.o.seconds
	b.prov["go_version"] = runtime.Version()
	b.prov["nproc"] = runtime.NumCPU()
	b.prov["gomaxprocs_generator"] = runtime.GOMAXPROCS(0)
	b.prov["gomaxprocs_daemon"] = nproc()
	b.prov["connections"] = b.conns
	b.prov["git_commit"] = gitCommit()
	b.prov["daemon_sha256"] = fileHash(b.o.serveBin)
	b.prov["attempted"] = b.attempted
	b.prov["failed"] = b.failed
}

func nproc() int { return runtime.NumCPU() }

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func fileHash(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	io.Copy(h, f)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeReport keeps the whole run (result, provenance, every metric and
// quantile) as a JSON file under the work directory.
func (b *bench) writeReport(res result) error {
	doc := map[string]any{"result": res, "provenance": b.prov, "all_metrics": b.m, "quantiles": b.quants}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%v.json", b.o.workload, b.o.seed, b.o.trace)
	return os.WriteFile(filepath.Join(b.o.work, name), data, 0o644)
}

// opRec is one open-loop operation's timing.
type opRec struct {
	due, start, end time.Time
	ok              bool
}

// arrivals spreads n operations over the run with seeded exponential
// gaps rescaled to span exactly the run, so every seed offers the same
// count at the same mean rate while the gaps themselves vary.
func (b *bench) arrivals(n int) []time.Duration {
	r := b.rng(7)
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		total += gaps[i]
	}
	span := b.o.seconds * float64(time.Second)
	out := make([]time.Duration, n)
	acc := 0.0
	for i, g := range gaps {
		out[i] = time.Duration(acc / total * span)
		acc += g
	}
	return out
}

// openLoop runs do(i) for each operation at its due time on b.conns
// workers. An operation that finds every worker busy starts late; its
// latency still counts from when it was due.
func (b *bench) openLoop(dues []time.Duration, do func(i int) bool) (time.Time, []opRec) {
	t0 := time.Now().Add(20 * time.Millisecond)
	recs := make([]opRec, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				due := t0.Add(dues[i])
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				recs[i].due, recs[i].start = due, time.Now()
				recs[i].ok = do(i)
				recs[i].end = time.Now()
			}
		}()
	}
	wg.Wait()
	return t0, recs
}

// openLoopMetrics turns open-loop records into the op latency, the
// achieved rate and the generator's lateness.
func (b *bench) openLoopMetrics(name string, t0 time.Time, recs []opRec, rate float64) (ok int) {
	var lat, late []float64
	last := t0
	for _, r := range recs {
		late = append(late, durMS(r.start.Sub(r.due)))
		if r.end.After(last) {
			last = r.end
		}
		if r.ok {
			ok++
			lat = append(lat, durMS(r.end.Sub(r.due)))
		}
	}
	tput := float64(ok) / last.Sub(t0).Seconds()
	b.m["op_p50_ms"] = b.q(name, lat, 0.5)
	b.m[name+"_p50_ms"] = b.m["op_p50_ms"]
	b.m[name+"_p99_ms"] = b.q(name, lat, 0.99)
	b.m["throughput_per_s"] = tput
	b.m["loadgen.late_ms.p99"] = b.q("loadgen.late_ms", late, 0.99)
	b.m["loadgen.achieved_ratio"] = tput / rate
	b.prov["offered_rate_per_s"] = rate
	b.prov["operations"] = len(recs)
	return ok
}
