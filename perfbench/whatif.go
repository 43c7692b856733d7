package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"netmaster/internal/device"
	"netmaster/internal/middleware"
	"netmaster/internal/policy"
	"netmaster/internal/power"
	"netmaster/internal/server"
	"netmaster/internal/simtime"
	"netmaster/internal/synth"
	"netmaster/internal/trace"
)

// whatIf is the paper's evaluation offered as a service: each operation
// simulates one policy over a distinct inline 7-day trace.
type whatIf struct {
	ops  []*simOp
	rate float64
	t0   time.Time
	recs []opRec
}

type simOp struct {
	req  server.SimulateRequest
	body []byte
}

// simVariant is one (policy, model, radios) request shape. The variants
// cycle with the 11 cohort specs (coprime lengths), so every run of the
// same size offers the same mix whatever the seed.
type simVariant struct {
	policy, model string
	wifi          bool
}

var simVariants = []simVariant{
	{"netmaster", "3g", false}, {"online", "3g", false}, {"oracle", "3g", false}, {"delay", "3g", false}, {"batch", "3g", false},
	{"netmaster", "lte", false}, {"online", "lte", false}, {"oracle", "lte", false}, {"delay", "lte", false}, {"batch", "lte", false},
	{"netmaster", "3g", true}, {"wifi-offload", "lte", true},
}

const (
	simDays      = 7
	wifiCoverage = 0.5
)

func (w *whatIf) daemonFlags(b *bench, rep int) []string { return nil }

// simRequest builds operation i's request.
func (b *bench) simRequest(i int) (server.SimulateRequest, error) {
	specs := cohort()
	v := simVariants[i%len(simVariants)]
	spec := b.perturb(specs[i%len(specs)], i)
	if v.wifi {
		spec.WiFiCoverage = wifiCoverage
	}
	tr, err := synth.Generate(spec, simDays)
	if err != nil {
		return server.SimulateRequest{}, err
	}
	req := server.SimulateRequest{Trace: tr, Policy: v.policy, Model: v.model}
	if v.wifi {
		req.Networks = &server.NetworksJSON{WiFi: &server.WiFiNetworkJSON{}}
	}
	return req, nil
}

func (w *whatIf) prepare(b *bench) error {
	// Low enough that host slowdowns do not turn into queueing (see
	// deviceSync.prepare).
	w.rate = 10
	if b.tiny() {
		w.rate = 8
	}
	n := int(w.rate * b.o.seconds)
	for i := 0; i < n; i++ {
		req, err := b.simRequest(i)
		if err != nil {
			return err
		}
		w.ops = append(w.ops, &simOp{req: req})
	}
	b.ring = 2*n + 1024
	b.prov["trace_days"] = simDays
	b.prov["variants"] = simVariants
	return nil
}

// setup warms the daemon with one request of every variant, on traces
// the timed phase never sends.
func (w *whatIf) setup(b *bench, d *daemon) error {
	for i := range simVariants {
		req, err := b.simRequest(1_000_000 + i)
		if err != nil {
			return err
		}
		if _, err := d.client.Simulate(context.Background(), req); err != nil {
			return fmt.Errorf("warm-up %s: %w", req.Policy, err)
		}
	}
	return nil
}

func (w *whatIf) timed(b *bench, d *daemon) error {
	ctx := context.Background()
	b.attempt(len(w.ops))
	w.t0, w.recs = b.openLoop(b.arrivals(len(w.ops)), func(i int) bool {
		op := w.ops[i]
		cctx, c := b.log.begin(ctx, "simulate")
		c.Capture = true
		_, err := d.client.Simulate(cctx, op.req)
		b.log.end(c, err)
		if err != nil {
			b.fail("simulate %d (%s): %v", i, op.req.Policy, err)
			return false
		}
		op.body = c.Body
		return true
	})
	return nil
}

func (w *whatIf) after(b *bench, d *daemon) (*daemon, error) { return b.probeRestart(d) }

// verify recomputes every simulation in-process and requires the
// daemon's body to equal the in-process result byte for byte.
func (w *whatIf) verify(b *bench) {
	for i, op := range w.ops {
		if op.body == nil {
			continue
		}
		rid := fmt.Sprintf("sim-%d", i)
		root := b.tr.begin("replay.simulate", rid)
		var in server.SimulateRequest
		replayDecode(b, b.tr, "simulate", rid, op.req, &in)
		resp, err := simulateInProcess(b.tr, rid, &in)
		var body []byte
		if err == nil {
			b.tr.do("server.encode.simulate", rid, func() { body, err = encodeIndented(resp) })
		}
		b.tr.end(root)
		if err != nil {
			b.fail("simulate %d: in-process: %v", i, err)
			continue
		}
		if !bytes.Equal(body, op.body) {
			b.fail("simulate %d (%s %s): body differs from the in-process result", i, op.req.Policy, op.req.Model)
		}
	}
}

// plannedPolicy hands a finished plan to device metering.
type plannedPolicy struct {
	name string
	plan *device.Plan
}

func (p *plannedPolicy) Name() string                            { return p.name }
func (p *plannedPolicy) Plan(*trace.Trace) (*device.Plan, error) { return p.plan, nil }

// simulateInProcess answers an inline-trace simulate request the way
// the daemon does, with each layer call in its own span: the policy's
// plan (or the middleware replay for "online") and the device metering
// of the baseline and the policy.
func simulateInProcess(tr *tracer, rid string, req *server.SimulateRequest) (*server.SimulateResponse, error) {
	model := power.Model3G()
	if req.Model == "lte" {
		model = power.ModelLTE()
	}
	t := req.Trace
	var wifi *power.WiFiModel
	if req.Networks != nil && req.Networks.WiFi != nil {
		wifi = power.ModelWiFi()
	}
	name := req.Policy
	var p device.Policy
	var err error
	switch req.Policy {
	case "netmaster":
		cfg := policy.DefaultNetMasterConfig(model)
		cfg.WiFi = wifi
		if wifi != nil {
			name = "netmaster-dual"
		}
		p, err = policy.NewNetMaster(cfg)
	case "oracle":
		p, err = policy.NewOracle(model)
	case "delay":
		p, err = policy.NewDelay(simtime.Duration(600))
	case "batch":
		p, err = policy.NewBatch(3, 0)
	case "online":
		rc := middleware.DefaultReplayConfig(model)
		rc.WiFi = wifi
		var res *middleware.ReplayResult
		tr.do("middleware.replay", rid, func() { res, err = middleware.Replay(t, rc) })
		if err == nil {
			p = &plannedPolicy{name: res.Plan.PolicyName, plan: res.Plan}
		}
	case "wifi-offload":
		p = policy.WiFiOffload{}
	default:
		return nil, fmt.Errorf("policy %q is not in the benchmark's mix", req.Policy)
	}
	if err != nil {
		return nil, err
	}
	run := func(planName string, pol device.Policy, radios *power.WiFiModel) (device.Metrics, error) {
		var plan *device.Plan
		var err error
		tr.do("policy.plan."+planName, rid, func() { plan, err = pol.Plan(t) })
		if err != nil {
			return device.Metrics{}, err
		}
		var m device.Metrics
		meter := "device.run"
		if radios != nil {
			meter = "device.run_radios"
		}
		tr.do(meter, rid, func() { m, err = device.ComputeMetricsRadios(plan, model, radios) })
		return m, err
	}
	base, err := run("baseline", policy.Baseline{}, nil)
	if err != nil {
		return nil, err
	}
	res, err := run(name, p, wifi)
	if err != nil {
		return nil, err
	}
	return &server.SimulateResponse{
		UserID: t.UserID, Days: t.Days, Model: model.Name,
		Baseline: metricsJSON(base), Result: metricsJSON(res),
		EnergySaving: res.EnergySavingVs(base), RadioOnSaving: res.RadioOnSavingVs(base),
	}, nil
}

// metricsJSON flattens device metrics onto the wire as the daemon does.
func metricsJSON(m device.Metrics) server.MetricsJSON {
	return server.MetricsJSON{
		Policy: m.PolicyName, EnergyJ: m.Radio.EnergyJ, RadioOnSecs: m.Radio.RadioOnSecs,
		TailEnergyJ: m.Radio.TailEnergyJ, Promotions: m.Radio.Promotions,
		WakeUps: m.WakeUps, WakeEnergyJ: m.WakeEnergyJ, BytesDown: m.BytesDown, BytesUp: m.BytesUp,
		AvgDownRateBps: m.AvgDownRateBps, AvgUpRateBps: m.AvgUpRateBps,
		PeakDownRateBps: m.PeakDownRateBps, PeakUpRateBps: m.PeakUpRateBps,
		Interactions: m.Interactions, WrongDecisions: m.WrongDecisions, Deferred: m.Deferred,
		MeanDeferSecs: m.MeanDeferSecs, MaxDeferSecs: m.MaxDeferSecs,
		WiFiEnergyJ: m.WiFi.EnergyJ, WiFiOnSecs: m.WiFi.RadioOnSecs, WiFiAssociations: m.WiFi.Promotions,
	}
}

func (w *whatIf) metrics(b *bench) int {
	return b.openLoopMetrics("simulate", w.t0, w.recs, w.rate)
}
