package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed step of the traced run. Client spans wrap each
// HTTP call and parent the daemon's own span (joined on request ID);
// replay spans wrap each in-process call into a layer.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Req    string             `json:"request_id,omitempty"`
	Start  float64            `json:"start_us"`
	End    float64            `json:"end_us"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	self   float64
}

func (s *span) ms() float64 { return (s.End - s.Start) / 1000 }

// tracer keeps spans in memory for one run. Replays are single-threaded,
// so the open span is the parent of the next one.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// begin opens a span under the current one; nil-safe.
func (t *tracer) begin(name, req string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.cur, Name: name, Req: req, Start: t.us(time.Now())})
	t.cur = len(t.spans)
	return t.cur
}

// end closes span id; nil-safe.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = t.us(time.Now())
	t.cur = s.Parent
}

// do runs f inside a span named name.
func (t *tracer) do(name, req string, f func()) {
	id := t.begin(name, req)
	f()
	t.end(id)
}

// attr sets a numeric attribute on span id.
func (t *tracer) attr(id int, key string, v float64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// addCalls records every timed HTTP call as a client span with the
// daemon's span under it. The daemon reports durations only, so its span
// is placed to end with the client span.
func (t *tracer) addCalls(b *bench) {
	b.log.mu.Lock()
	calls := append([]*call(nil), b.log.calls...)
	b.log.mu.Unlock()
	sort.Slice(calls, func(i, j int) bool { return calls[i].Start.Before(calls[j].Start) })
	for _, c := range calls {
		cs := span{ID: len(t.spans) + 1, Name: "client." + c.Endpoint, Req: c.ReqID,
			Start: t.us(c.Start), End: t.us(c.End),
			Attrs: map[string]float64{"request_bytes": float64(c.ReqBytes), "response_bytes": float64(c.RespBytes), "status": float64(c.Status)}}
		t.spans = append(t.spans, cs)
		if sp, ok := b.joined[c.ReqID]; ok {
			t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: cs.ID, Name: "server." + c.Endpoint, Req: c.ReqID,
				Start: cs.End - sp.totalMS*1000, End: cs.End,
				Attrs: map[string]float64{"queue_wait_ms": sp.queueMS, "handle_ms": sp.handleMS}})
		}
	}
}

// selfTimes fills each span's self time: its duration minus the part its
// children cover (children of a replay span run inside it, in sequence).
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].self = t.spans[i].ms()
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			t.spans[p-1].self -= t.spans[i].ms()
		}
	}
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].ms())
		}
	}
	return out
}

// layerMetrics derives the traced per-layer metrics from replay spans.
func (t *tracer) layerMetrics(b *bench) {
	meanOf := func(metric, spanName string) {
		if d := t.durations(spanName); len(d) > 0 {
			b.m[metric] = mean(d)
		}
	}
	for _, ep := range []string{"profile_update", "schedule", "simulate", "ingest_batch"} {
		meanOf("server.decode_ms."+ep, "server.decode."+ep)
	}
	for _, ep := range []string{"schedule", "simulate", "fleet_report"} {
		meanOf("server.encode_ms."+ep, "server.encode."+ep)
	}
	for _, l := range []string{"clone", "fold_day", "profile", "hash"} {
		meanOf("habit."+l+"_ms", "habit."+l)
	}
	if d := t.durations("core.schedule"); len(d) > 0 {
		b.m["core.schedule_ms.p50"] = b.q("core.schedule_ms", d, 0.5)
		b.m["core.schedule_ms.p99"] = b.q("core.schedule_ms", d, 0.99)
		var acts, slots, assigned float64
		for i := range t.spans {
			if s := &t.spans[i]; s.Name == "core.schedule" {
				acts += s.Attrs["activities"]
				slots += s.Attrs["slots"]
				assigned += s.Attrs["assigned"]
			}
		}
		b.m["core.activities_per_call"] = acts / float64(len(d))
		b.m["core.slots_per_call"] = slots / float64(len(d))
		if acts > 0 {
			b.m["core.scheduled_ratio"] = assigned / acts
		}
	}
	for _, p := range []string{"netmaster", "netmaster-dual", "oracle", "delay", "batch", "wifi-offload"} {
		meanOf("policy.plan_ms."+p, "policy.plan."+p)
	}
	if d := t.durations("middleware.replay"); len(d) > 0 {
		b.m["middleware.replay_ms.p50"] = b.q("middleware.replay_ms", d, 0.5)
		b.m["middleware.replay_ms.p99"] = b.q("middleware.replay_ms", d, 0.99)
	}
	meanOf("device.run_ms", "device.run")
	meanOf("device.run_radios_ms", "device.run_radios")
	meanOf("telemetry.aggregate_ms", "telemetry.aggregate")
	meanOf("telemetry.export_ms", "telemetry.export")
	meanOf("telemetry.prom_ms", "telemetry.prom")
	meanOf("analyze.fleet_ms", "analyze.fleet")
	var devMS, devN float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == "analyze.devices" {
			devMS += s.ms()
			devN += s.Attrs["devices"]
		}
	}
	if devN > 0 {
		b.m["analyze.device_ms"] = devMS / devN
	}
	if d := t.durations("store.append"); len(d) > 0 {
		b.m["store.append_ms.p50"] = b.q("store.append_ms", d, 0.5)
		b.m["store.append_ms.p99"] = b.q("store.append_ms", d, 0.99)
	}
	meanOf("store.compact_ms", "store.compact")
}

// report prints the per-layer table and the reconciliation of daemon
// handle time against the replayed layers, and writes the span file.
func (t *tracer) report(b *bench, out io.Writer) {
	fmt.Fprintln(out, "per-layer metrics (traced run):")
	fmt.Fprintf(out, "  %-38s %12s %-6s %-9s %-50s %s\n", "metric", "value", "unit", "source", "should move", "flat on")
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-38s %12.4f %-6s %-9s %-50s %s\n", d.Name, b.m[d.Name], d.Unit, d.Source, d.Moves, d.Flat)
	}

	fmt.Fprintln(out, "reconciliation: daemon handle time vs in-process layer self-times (one thread, idle daemon):")
	fmt.Fprintf(out, "  %-16s %6s %14s %14s %14s %9s\n", "request", "n", "handle_ms", "layers_ms", "remainder_ms", "share")
	for _, ep := range []string{"profile_update", "schedule", "simulate", "ingest_batch", "fleet_report"} {
		var handle []float64
		for _, c := range b.log.byEndpoint(ep) {
			if sp, ok := b.joined[c.ReqID]; ok {
				handle = append(handle, sp.handleMS)
			}
		}
		var layers []float64
		for i := range t.spans {
			if s := &t.spans[i]; s.Name == "replay."+ep {
				layers = append(layers, s.ms()-s.self)
			}
		}
		if len(handle) == 0 || len(layers) == 0 {
			continue
		}
		h, l := mean(handle), mean(layers)
		fmt.Fprintf(out, "  %-16s %6d %14.3f %14.3f %14.3f %8.1f%%\n", ep, len(handle), h, l, h-l, 100*(h-l)/h)
	}
	fmt.Fprintln(out, "traced run's own end-to-end numbers (compare with a -trace 0 run to see the tracing overhead):")
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-22s %12.4f %s\n", d.Name, b.m[d.Name], d.Unit)
	}
	if path, err := t.write(b); err != nil {
		b.problem("span file: %v", err)
	} else {
		fmt.Fprintf(out, "spans: %d written to %s\n", len(t.spans), path)
	}
}

// write stores the spans as JSON lines, one span a line.
func (t *tracer) write(b *bench) (string, error) {
	path := filepath.Join(b.o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", b.o.workload, b.o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// readSpans parses a span file back; the benchmark's own test uses it.
func readSpans(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []span
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
