package main

import (
	"bytes"
	"context"
	"fmt"

	"netmaster/internal/habit"
	"netmaster/internal/metrics"
	"netmaster/internal/power"
	"netmaster/internal/server"
	"netmaster/internal/synth"
	"netmaster/internal/trace"
)

// Probes make every per-layer metric a measurement on every workload.
// A workload that never calls an endpoint or a layer (the "flat on"
// column of the catalog) would otherwise read a constant 0 there.
// Instead the traced run sends each endpoint the timed phase never
// called a few requests, one at a time, after the timed phase has been
// measured, and calls each layer the replays never reached once
// in-process, all on one small input drawn from the seed. On a flat
// workload a layer metric is therefore the layer's per-call cost on
// that input: a change to the layer moves it while the workload's
// end-to-end numbers stay put.
type probe struct {
	tr   *trace.Trace      // simDays+1 days of one cohort device, with Wi-Fi coverage
	snap *metrics.Snapshot // its dual-radio replay's metrics: one fleet device
}

// probeCalls is how many requests each idle endpoint gets.
const probeCalls = 3

func newProbe(b *bench) (*probe, error) {
	specs := cohort()
	i := int(b.o.seed % int64(len(specs)))
	if i < 0 {
		i += len(specs)
	}
	spec := b.perturb(specs[i], -1)
	spec.WiFiCoverage = wifiCoverage
	tr, err := synth.Generate(spec, simDays+1)
	if err != nil {
		return nil, err
	}
	snap, err := deviceSnapshot(tr.PrefixDays(simDays), true)
	if err != nil {
		return nil, err
	}
	return &probe{tr: tr, snap: snap}, nil
}

func (p *probe) history() *trace.Trace { return p.tr.PrefixDays(simDays) }

func (p *probe) items() []server.IngestRequest {
	return []server.IngestRequest{{DeviceID: "pb/probe", Metrics: p.snap}}
}

// http calls every endpoint the timed phase never called, logging the
// calls like timed ones so their daemon spans join, and fills the
// client-view metrics of those endpoints.
func (p *probe) http(b *bench, d *daemon) error {
	ctx := context.Background()
	used := map[string]bool{}
	for _, c := range b.log.calls {
		used[c.Endpoint] = true
	}
	do := func(ep string, f func(ctx context.Context) error) (float64, error) {
		cctx, c := b.log.begin(ctx, ep)
		err := f(cctx)
		b.log.end(c, err)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", ep, err)
		}
		return c.ms(), nil
	}
	lat := map[string][]float64{}
	for k := 0; k < probeCalls; k++ {
		if !used["schedule"] {
			var id string
			upd, err := do("profile_update", func(ctx context.Context) error {
				r, err := d.client.ProfileUpdate(ctx, server.ProfileUpdateRequest{Trace: p.history()})
				if err == nil {
					id = r.ProfileID
				}
				return err
			})
			if err != nil {
				return err
			}
			sch, err := do("schedule", func(ctx context.Context) error {
				_, err := d.client.Schedule(ctx, server.ScheduleRequest{ProfileID: id, Day: simDays, Activities: screenOffActivities(p.tr, simDays)})
				return err
			})
			if err != nil {
				return err
			}
			lat["sync"] = append(lat["sync"], upd+sch)
		}
		if !used["simulate"] {
			ms, err := do("simulate", func(ctx context.Context) error {
				_, err := d.client.Simulate(ctx, server.SimulateRequest{Trace: p.history(), Policy: "netmaster"})
				return err
			})
			if err != nil {
				return err
			}
			lat["simulate"] = append(lat["simulate"], ms)
		}
		if !used["ingest_batch"] {
			ms, err := do("ingest_batch", func(ctx context.Context) error {
				_, err := d.client.IngestBatch(ctx, server.BatchIngestRequest{Items: p.items()})
				return err
			})
			if err != nil {
				return err
			}
			lat["ingest"] = append(lat["ingest"], ms)
		}
		if !used["fleet_report"] {
			var buf bytes.Buffer
			ms, err := do("fleet_report", func(ctx context.Context) error {
				_, err := getReport(ctx, d, &buf)
				return err
			})
			if err != nil {
				return err
			}
			lat["report"] = append(lat["report"], ms)
			ms, err = do("scrape", func(ctx context.Context) error {
				_, err := d.client.Metrics(ctx, "fleet")
				return err
			})
			if err != nil {
				return err
			}
			lat["scrape"] = append(lat["scrape"], ms)
		}
	}
	for name, xs := range lat {
		b.m[name+"_p50_ms"] = b.q("probe."+name, xs, 0.5)
		if name != "report" && name != "scrape" {
			b.m[name+"_p99_ms"] = b.q("probe."+name, xs, 0.99)
		}
	}
	if xs := lat["ingest"]; len(xs) > 0 {
		b.m["ingest_devices_per_s"] = float64(len(p.items())) / (mean(xs) / 1000)
	}
	return nil
}

// layers calls, in-process, every layer the workload's replays did not
// reach, once each, under a "probe" span.
func (p *probe) layers(b *bench) {
	tr := b.tr
	called := func(name string) bool { return len(tr.durations(name)) > 0 }
	const rid = "probe"
	root := tr.begin("probe", rid)
	defer tr.end(root)
	history := p.history()

	if !called("habit.fold_day") || !called("core.schedule") {
		sk, err := habit.NewSketch("", habit.DefaultConfig())
		if err == nil {
			err = sk.FoldTrace(history.PrefixDays(simDays - 1))
		}
		if err != nil {
			b.problem("probe fold: %v", err)
			return
		}
		slice := daySlice(history, simDays-1)
		var upd server.ProfileUpdateRequest
		replayDecode(b, tr, "profile_update", rid, server.ProfileUpdateRequest{Trace: slice}, &upd)
		tr.do("habit.clone", rid, func() { sk = sk.Clone() })
		tr.do("habit.fold_day", rid, func() { err = sk.FoldTrace(upd.Trace) })
		var id string
		tr.do("habit.hash", rid, func() { id = sk.Hash() })
		var prof *habit.Profile
		tr.do("habit.profile", rid, func() { prof = sk.Profile() })
		var in server.ScheduleRequest
		replayDecode(b, tr, "schedule", rid, server.ScheduleRequest{ProfileID: id, Day: simDays, Activities: screenOffActivities(p.tr, simDays)}, &in)
		resp, _, serr := scheduleInProcess(tr, rid, &in, prof, id, power.Model3G())
		if err == nil {
			err = serr
		}
		if err == nil {
			tr.do("server.encode.schedule", rid, func() { _, err = encodeIndented(resp) })
		}
		if err != nil {
			b.problem("probe schedule: %v", err)
		}
	}

	if !called("policy.plan.netmaster") {
		for _, v := range simVariants {
			req := server.SimulateRequest{Trace: history, Policy: v.policy, Model: v.model}
			if v.wifi {
				req.Networks = &server.NetworksJSON{WiFi: &server.WiFiNetworkJSON{}}
			}
			var in server.SimulateRequest
			replayDecode(b, tr, "simulate", rid, req, &in)
			resp, err := simulateInProcess(tr, rid, &in)
			if err == nil {
				tr.do("server.encode.simulate", rid, func() { _, err = encodeIndented(resp) })
			}
			if err != nil {
				b.problem("probe simulate %s: %v", v.policy, err)
			}
		}
	}

	if !called("telemetry.aggregate") {
		devs, ins := fleetInputs(p.items())
		if _, err := replayReport(tr, rid, devs, ins); err != nil {
			b.problem("probe report: %v", err)
		}
		if err := replayScrape(tr, rid, devs); err != nil {
			b.problem("probe scrape: %v", err)
		}
	}

	if !called("store.append") {
		st, done, err := scratchStore(b)
		if err == nil {
			err = replayAppend(b, tr, st, rid, p.items(), 1)
			if err == nil {
				err = replayCompact(tr, st, p.items())
			}
			done()
		}
		if err != nil {
			b.problem("probe store: %v", err)
		}
	}
}
