package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"netmaster/internal/habit"
	"netmaster/internal/power"
	"netmaster/internal/server"
	"netmaster/internal/synth"
)

// declared reads BENCHMARK.json at the repository root.
func declared(t *testing.T) (e2e, layers []map[string]any) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.EndToEnd, doc.PerLayer
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	e2e, layers := declared(t)
	check := func(kind string, got []map[string]any, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g["name"] != d.Name || g["unit"] != d.Unit || g["better"] != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, catalog %+v", kind, i, g, d)
			}
			if b, ok := g["bound"]; ok && b != d.Bound {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the catalog", d.Name, b, d.Bound)
			}
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

// buildServe compiles netmaster-serve from this checkout.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "netmaster-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/netmaster-serve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build netmaster-serve: %v\n%s", err, out)
	}
	return bin
}

// TestTinyRuns runs every workload at a tiny size, untraced and traced,
// and requires every declared metric in the result line with its unit,
// every output check passed, and (traced) a parseable span file.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts netmaster-serve")
	}
	bin := buildServe(t)
	e2e, layers := declared(t)
	for _, wl := range []string{"device-sync", "what-if", "fleet-ingest"} {
		for _, traced := range []bool{false, true} {
			work := t.TempDir()
			var out bytes.Buffer
			res, err := run(options{workload: wl, seed: 5, seconds: 1.5, trace: traced, tiny: true, serveBin: bin, work: work}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", wl, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl, err)
			}
			want := e2e
			if traced {
				want = layers
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", wl, traced, len(last.Metrics), len(want))
			}
			for _, d := range want {
				name := d["name"].(string)
				m, ok := last.Metrics[name]
				if !ok || m.Unit != d["unit"] {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %v", wl, traced, name, m, ok, d["unit"])
				}
			}
			if !traced {
				for _, d := range want {
					if v := last.Metrics[d["name"].(string)].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", wl, d["name"], v)
					}
				}
				continue
			}
			spans, err := readSpans(filepath.Join(work, "spans-"+wl+"-seed5.jsonl"))
			if err != nil || len(spans) == 0 {
				t.Fatalf("%s: span file: %d spans, %v", wl, len(spans), err)
			}
			if !strings.Contains(out.String(), "reconciliation:") {
				t.Errorf("%s: traced report lacks the reconciliation table", wl)
			}
		}
	}
}

func testBench(t *testing.T) *bench {
	return &bench{o: options{seed: 3, tiny: true, work: t.TempDir()}, m: map[string]float64{}, prov: map[string]any{}}
}

// TestScheduleCheckRejectsDroppedActivity corrupts a real in-process
// schedule answer by dropping one activity ID.
func TestScheduleCheckRejectsDroppedActivity(t *testing.T) {
	b := testBench(t)
	tr, err := synth.Generate(b.perturb(cohort()[8], 0), 16)
	if err != nil {
		t.Fatal(err)
	}
	sk, _ := habit.NewSketch("", habit.DefaultConfig())
	if err := sk.FoldTrace(tr.PrefixDays(15)); err != nil {
		t.Fatal(err)
	}
	req := server.ScheduleRequest{Day: 15, Activities: screenOffActivities(tr, 15)}
	resp, cfg, err := scheduleInProcess(nil, "", &req, sk.Profile(), sk.Hash(), power.Model3G())
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkSchedule(req.Activities, resp, cfg); msg != "" {
		t.Fatalf("intact answer rejected: %s", msg)
	}
	if len(resp.Assignments) == 0 {
		t.Fatal("no assignment to drop")
	}
	resp.Assignments = resp.Assignments[1:]
	if msg := checkSchedule(req.Activities, resp, cfg); msg == "" {
		t.Fatal("answer missing an activity passed the check")
	}
}

// TestSimulateCheckRejectsPerturbedSaving corrupts energy_saving in an
// otherwise exact simulate body.
func TestSimulateCheckRejectsPerturbedSaving(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		b := testBench(t)
		req, err := b.simRequest(0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := simulateInProcess(nil, "", &req)
		if err != nil {
			t.Fatal(err)
		}
		if corrupt {
			resp.EnergySaving += 1e-9
		}
		body, _ := encodeIndented(resp)
		w := &whatIf{ops: []*simOp{{req: req, body: body}}}
		w.verify(b)
		if got := b.failed == 1; got != corrupt {
			t.Errorf("corrupt=%v: failed=%d (%v)", corrupt, b.failed, b.problems)
		}
	}
}

// TestFleetCheckRejectsShortReport hands the fleet check a report that
// counts one device fewer than the fleet.
func TestFleetCheckRejectsShortReport(t *testing.T) {
	const n = 3
	for _, short := range []bool{false, true} {
		b := testBench(t)
		devices := n
		if short {
			devices--
		}
		var doc server.FleetReportResponse
		doc.Metrics.Devices = devices
		doc.Analysis.Devices = devices
		for i := 0; i < devices; i++ {
			doc.Metrics.DeviceIDs = append(doc.Metrics.DeviceIDs, string(rune('a'+i)))
			doc.Analysis.DeviceIDs = append(doc.Analysis.DeviceIDs, string(rune('a'+i)))
		}
		body, _ := encodeIndented(doc)
		w := &fleetIngest{n: n, refBody: body}
		w.verify(b)
		if got := b.failed == 1; got != short {
			t.Errorf("short=%v: failed=%d (%v)", short, b.failed, b.problems)
		}
	}
}

func TestQuantileCountsBeyond(t *testing.T) {
	q := quantile("x", []float64{5, 1, 4, 2, 3, 5}, 0.5)
	if q.Value != 3 || q.N != 6 || q.Beyond != 3 {
		t.Fatalf("p50 of 1..5,5: %+v", q)
	}
	if q := quantile("x", []float64{1, 2, 3}, 0.99); q.Value != 3 || q.Beyond != 0 {
		t.Fatalf("p99 of 1..3: %+v", q)
	}
}
