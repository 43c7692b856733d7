package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"netmaster/internal/core"
	"netmaster/internal/habit"
	"netmaster/internal/power"
	"netmaster/internal/server"
	"netmaster/internal/simtime"
	"netmaster/internal/synth"
	"netmaster/internal/trace"
)

// deviceSync is the paper's per-device loop: each operation uploads a
// device's next one-day trace to /v1/profile/update, then schedules the
// following day's screen-off activities under the returned profile.
type deviceSync struct {
	devices []*syncDevice
	order   []int // the device of operation i is order[i%len(devices)]
	ops     []*syncOp
	rate    float64
	t0      time.Time
	recs    []opRec
}

type syncDevice struct {
	id      string
	trace   *trace.Trace
	setup   server.ProfileUpdateRequest
	setupID string
}

type syncOp struct {
	dev  int
	day  int // the day folded; the schedule is for day+1
	prev int // this device's previous operation, -1 for its first
	upd  server.ProfileUpdateRequest
	sch  server.ScheduleRequest
	done chan struct{}

	updResp *server.ProfileUpdateResponse
	updBody []byte
	schResp *server.ScheduleResponse
	schBody []byte
}

// historyDays is how many days set-up folds into each device's profile.
const historyDays = 14

func (w *deviceSync) daemonFlags(b *bench, rep int) []string { return nil }

func (w *deviceSync) prepare(b *bench) error {
	// Fewer devices than the profile cache's 128 entries hold: a
	// device's latest profile must survive the other devices' syncs until
	// its next turn, which comes exactly len(devices) operations later.
	// Each sync touches two entries (the base it reads and the profile it
	// adds), so at most 63 devices fit. The rate keeps the daemon well
	// below saturation: on a shared host whose speed drifts by half, a
	// busier daemon turns every slowdown into queueing, and the latency
	// no longer repeats from run to run.
	perSpec, rate := 5, 20.0
	if b.tiny() {
		perSpec, rate = 1, 10.0
	}
	w.rate = rate
	n := int(rate * b.o.seconds)
	specs := cohort()
	for k := 0; k < perSpec; k++ {
		for _, spec := range specs {
			w.devices = append(w.devices, &syncDevice{id: fmt.Sprintf("%s-%d", spec.ID, k)})
		}
	}
	nd := len(w.devices)
	rounds := (n + nd - 1) / nd
	order := b.rng(11).Perm(nd)
	w.order = order
	for i, dev := range w.devices {
		spec := b.perturb(specs[i%len(specs)], i)
		tr, err := synth.Generate(spec, historyDays+rounds+1)
		if err != nil {
			return err
		}
		dev.trace = tr
		dev.setup = server.ProfileUpdateRequest{Trace: tr.PrefixDays(historyDays)}
	}
	last := make([]int, nd)
	for i := range last {
		last[i] = -1
	}
	for i := 0; i < n; i++ {
		dev := order[i%nd]
		day := historyDays + i/nd
		tr := w.devices[dev].trace
		acts := screenOffActivities(tr, day+1)
		if len(acts) == 0 {
			return fmt.Errorf("device %s has no screen-off activity on day %d", w.devices[dev].id, day+1)
		}
		w.ops = append(w.ops, &syncOp{
			dev: dev, day: day, prev: last[dev],
			upd:  server.ProfileUpdateRequest{Trace: daySlice(tr, day)},
			sch:  server.ScheduleRequest{DeviceID: w.devices[dev].id, Day: day + 1, Activities: acts},
			done: make(chan struct{}),
		})
		last[dev] = i
	}
	b.ring = nd*2 + 2*n + 1024
	b.prov["devices"] = nd
	b.prov["history_days"] = historyDays
	return nil
}

// setup folds every device's history in the order the timed phase
// visits the devices, so each device's profile is exactly len(devices)-1
// cache insertions old when its first sync arrives.
func (w *deviceSync) setup(b *bench, d *daemon) error {
	for _, i := range w.order {
		dev := w.devices[i]
		resp, err := d.client.ProfileUpdate(context.Background(), dev.setup)
		if err != nil {
			return fmt.Errorf("fold history of %s: %w", dev.id, err)
		}
		dev.setupID = resp.ProfileID
	}
	return nil
}

func (w *deviceSync) timed(b *bench, d *daemon) error {
	ctx := context.Background()
	b.attempt(len(w.ops))
	w.t0, w.recs = b.openLoop(b.arrivals(len(w.ops)), func(i int) bool {
		op := w.ops[i]
		defer close(op.done)
		base := w.devices[op.dev].setupID
		if op.prev >= 0 {
			prev := w.ops[op.prev]
			<-prev.done
			if prev.schResp == nil {
				b.fail("op %d: device %s skipped after its previous sync failed", i, w.devices[op.dev].id)
				return false
			}
			base = prev.updResp.ProfileID
		}
		upd := op.upd
		upd.ProfileID = base
		cctx, c := b.log.begin(ctx, "profile_update")
		c.Capture = true
		resp, err := d.client.ProfileUpdate(cctx, upd)
		b.log.end(c, err)
		if err != nil {
			b.fail("op %d: profile update: %v", i, err)
			return false
		}
		op.updResp, op.updBody = resp, c.Body
		sch := op.sch
		sch.ProfileID = resp.ProfileID
		cctx, c = b.log.begin(ctx, "schedule")
		c.Capture = true
		sresp, err := d.client.Schedule(cctx, sch)
		b.log.end(c, err)
		if err != nil {
			b.fail("op %d: schedule: %v", i, err)
			return false
		}
		op.schResp, op.schBody = sresp, c.Body
		return true
	})
	return nil
}

func (w *deviceSync) after(b *bench, d *daemon) (*daemon, error) { return b.probeRestart(d) }

// verify replays every device's folds and schedules in-process: each
// profile ID must equal habit.Sketch.Hash of the same fold history, and
// each schedule body must equal the in-process core result encoded the
// way the daemon encodes it, besides covering every activity once
// within slot capacity.
func (w *deviceSync) verify(b *bench) {
	tr := b.tr
	sketches := make([]*habit.Sketch, len(w.devices))
	for i, dev := range w.devices {
		sk, err := habit.NewSketch("", habit.DefaultConfig())
		if err == nil {
			err = sk.FoldTrace(dev.setup.Trace)
		}
		if err != nil {
			b.problem("device %s: in-process history fold: %v", dev.id, err)
			return
		}
		if sk.Hash() != dev.setupID {
			b.problem("device %s: set-up profile_id %s, in-process hash %s", dev.id, dev.setupID, sk.Hash())
		}
		sketches[i] = sk
	}
	model := power.Model3G()
	for i, op := range w.ops {
		if op.schResp == nil {
			continue
		}
		base := op.updResp.BaseProfileID
		rid := fmt.Sprintf("op-%d", i)

		root := tr.begin("replay.profile_update", rid)
		var upd server.ProfileUpdateRequest
		replayDecode(b, tr, "profile_update", rid, op.upd, &upd)
		var sk *habit.Sketch
		tr.do("habit.clone", rid, func() { sk = sketches[op.dev].Clone() })
		var err error
		tr.do("habit.fold_day", rid, func() { err = sk.FoldTrace(upd.Trace) })
		var id string
		tr.do("habit.hash", rid, func() { id = sk.Hash() })
		var prof *habit.Profile
		tr.do("habit.profile", rid, func() { prof = sk.Profile() })
		updResp := profileUpdateResponse(tr, rid, sk, prof, id, base)
		var updBody []byte
		tr.do("server.encode.profile_update", rid, func() { updBody, _ = encodeIndented(updResp) })
		tr.end(root)
		if err != nil || id != op.updResp.ProfileID {
			b.fail("op %d: profile_id %s (base %s), in-process hash %s (err %v)", i, op.updResp.ProfileID, base, id, err)
			continue
		}
		if !bytes.Equal(updBody, op.updBody) {
			b.fail("op %d: profile update body differs from the in-process habit result", i)
			continue
		}
		sketches[op.dev] = sk

		root = tr.begin("replay.schedule", rid)
		sch := op.sch
		sch.ProfileID = id
		var in server.ScheduleRequest
		replayDecode(b, tr, "schedule", rid, sch, &in)
		want, cfg, err := scheduleInProcess(tr, rid, &in, prof, id, model)
		var body []byte
		tr.do("server.encode.schedule", rid, func() { body, _ = encodeIndented(want) })
		tr.end(root)
		if err != nil {
			b.fail("op %d: in-process schedule: %v", i, err)
			continue
		}
		if msg := checkSchedule(op.sch.Activities, op.schResp, cfg); msg != "" {
			b.fail("op %d: schedule response: %s", i, msg)
			continue
		}
		if !bytes.Equal(body, op.schBody) {
			b.fail("op %d: schedule body differs from the in-process core result", i)
		}
	}
}

// profileUpdateResponse builds the profile update answer from the
// folded sketch as the daemon does: per-slot probabilities and the
// predicted active slots of the first weekday and weekend day.
func profileUpdateResponse(tr *tracer, rid string, sk *habit.Sketch, p *habit.Profile, id, base string) *server.ProfileUpdateResponse {
	summary := func(dt *habit.DayTypeProfile, weekend bool) server.DayTypeSummary {
		s := server.DayTypeSummary{Days: dt.Days, UseProb: make([]float64, len(dt.Slots)), NetProb: make([]float64, len(dt.Slots))}
		for i, sl := range dt.Slots {
			s.UseProb[i], s.NetProb[i] = sl.UseProb, sl.NetProb
		}
		day := 0
		for simtime.At(day, 0, 0, 0).IsWeekend() != weekend {
			day++
		}
		tr.do("habit.predict", rid, func() { s.ActiveSlots = p.PredictedActiveSlots(day) })
		if s.ActiveSlots == nil {
			s.ActiveSlots = []simtime.Interval{}
		}
		return s
	}
	resp := &server.ProfileUpdateResponse{
		ProfileID: id, BaseProfileID: base, Days: sk.Days(), UserID: p.UserID,
		SlotWidthSecs: int64(p.SlotWidth), SpecialApps: p.SpecialApps,
		Weekday: summary(&p.Weekday, false), Weekend: summary(&p.Weekend, true),
	}
	if resp.SpecialApps == nil {
		resp.SpecialApps = []trace.AppID{}
	}
	return resp
}

// scheduleInProcess answers a schedule request on an already resolved
// profile exactly as the daemon does, calling core directly.
func scheduleInProcess(tr *tracer, rid string, req *server.ScheduleRequest, p *habit.Profile, id string, model *power.Model) (*server.ScheduleResponse, *core.Config, error) {
	var u []simtime.Interval
	tr.do("habit.predict", rid, func() { u = p.PredictedActiveSlots(req.Day) })
	cfg := core.DefaultConfig()
	cfg.ProbSlotWidth = p.SlotWidth
	cfg.SavedEnergy = func(a core.Activity) float64 { return model.SavedEnergy(a.ActiveSecs) }
	cfg.UseProb = p.UseProbAt
	resp := &server.ScheduleResponse{DeviceID: req.DeviceID, ProfileID: id, Day: req.Day,
		ActiveSlots: []simtime.Interval{}, Assignments: []server.AssignmentJSON{}, Unscheduled: []int{}, SlotLoad: []int64{}}
	if len(u) == 0 {
		for _, a := range req.Activities {
			resp.Unscheduled = append(resp.Unscheduled, a.ID)
		}
		return resp, &cfg, nil
	}
	sched, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	acts := make([]core.Activity, len(req.Activities))
	for i, a := range req.Activities {
		acts[i] = core.Activity{ID: a.ID, Time: simtime.Instant(a.TimeSecs), Bytes: a.Bytes, ActiveSecs: a.ActiveSecs, DeferOnly: a.DeferOnly}
	}
	var res *core.Schedule
	sid := tr.begin("core.schedule", rid)
	res, err = sched.Schedule(u, acts)
	tr.attr(sid, "activities", float64(len(acts)))
	tr.attr(sid, "slots", float64(len(u)))
	if res != nil {
		tr.attr(sid, "assigned", float64(len(res.Assignments)))
	}
	tr.end(sid)
	if err != nil {
		return nil, nil, err
	}
	resp.ActiveSlots = u
	resp.TotalSaved, resp.TotalPenalty, resp.Objective, resp.SlotLoad = res.TotalSaved, res.TotalPenalty, res.Objective, res.SlotLoad
	if res.Unscheduled != nil {
		resp.Unscheduled = res.Unscheduled
	}
	for _, a := range res.Assignments {
		resp.Assignments = append(resp.Assignments, server.AssignmentJSON{
			ActivityID: a.ActivityID, SlotIndex: a.SlotIndex, Slot: u[a.SlotIndex], TargetSecs: int64(a.Target),
			Bytes: a.Bytes, Profit: a.Profit, Saved: a.Saved, Penalty: a.Penalty, Network: string(a.Network),
		})
	}
	return resp, &cfg, nil
}

// checkSchedule checks a schedule answer on its own terms: every
// submitted activity appears exactly once across assignments and
// unscheduled, every assignment names a real slot, and no slot carries
// more than its capacity. It returns "" when the answer holds.
func checkSchedule(acts []server.ActivityJSON, resp *server.ScheduleResponse, cfg *core.Config) string {
	seen := map[int]int{}
	for _, a := range resp.Assignments {
		seen[a.ActivityID]++
		if a.SlotIndex < 0 || a.SlotIndex >= len(resp.ActiveSlots) {
			return fmt.Sprintf("activity %d assigned to slot %d of %d", a.ActivityID, a.SlotIndex, len(resp.ActiveSlots))
		}
	}
	for _, id := range resp.Unscheduled {
		seen[id]++
	}
	for _, a := range acts {
		if seen[a.ID] != 1 {
			return fmt.Sprintf("activity %d listed %d times", a.ID, seen[a.ID])
		}
		delete(seen, a.ID)
	}
	if len(seen) > 0 {
		return fmt.Sprintf("%d activity IDs that were never submitted", len(seen))
	}
	if len(resp.SlotLoad) != len(resp.ActiveSlots) && len(resp.Assignments) > 0 {
		return fmt.Sprintf("%d slot loads for %d slots", len(resp.SlotLoad), len(resp.ActiveSlots))
	}
	for i, load := range resp.SlotLoad {
		if c := cfg.Capacity(resp.ActiveSlots[i]); load > c {
			return fmt.Sprintf("slot %d carries %d bytes over its capacity %d", i, load, c)
		}
	}
	return ""
}

func (w *deviceSync) metrics(b *bench) int {
	return b.openLoopMetrics("sync", w.t0, w.recs, w.rate)
}

// replayDecode times the daemon's request decode (unknown fields
// rejected) on the bytes the client sent for req.
func replayDecode(b *bench, tr *tracer, ep, rid string, req, into any) {
	raw, err := json.Marshal(req)
	if err != nil {
		b.problem("%s: marshal for replay: %v", ep, err)
		return
	}
	tr.do("server.decode."+ep, rid, func() {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		err = dec.Decode(into)
	})
	if err != nil {
		b.problem("%s: replay decode: %v", ep, err)
	}
}

// encodeIndented encodes v as the daemon writes every JSON body.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}
