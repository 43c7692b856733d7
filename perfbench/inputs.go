package main

import (
	"netmaster/internal/server"
	"netmaster/internal/simtime"
	"netmaster/internal/synth"
	"netmaster/internal/trace"
)

// cohort is all 11 synth cohort specs: the eight motivation users
// (about 35–45 screen-off activities a day) and the three evaluation
// volunteers (about 145).
func cohort() []synth.UserSpec {
	return append(synth.MotivationCohort(), synth.EvalCohort()...)
}

// perturb derives the spec of one synthetic device from a cohort spec:
// the benchmark seed and the device index re-key the generator, so each
// device gets its own trace with the spec's habits.
func (b *bench) perturb(spec synth.UserSpec, device int) synth.UserSpec {
	spec.Seed = spec.Seed*7919 + b.o.seed*104_729 + int64(device)*15_485_863
	return spec
}

// daySlice cuts day d out of t as a one-day trace starting at instant 0,
// clipping spans that cross midnight.
func daySlice(t *trace.Trace, d int) *trace.Trace {
	shift := simtime.At(d, 0, 0, 0)
	day := simtime.Interval{Start: shift, End: shift.Add(simtime.Day)}
	out := &trace.Trace{UserID: t.UserID, Days: 1, InstalledApps: append([]trace.AppID(nil), t.InstalledApps...)}
	for _, s := range t.Sessions {
		iv := s.Interval.Intersect(day)
		if !iv.IsEmpty() {
			out.Sessions = append(out.Sessions, trace.ScreenSession{Interval: simtime.Interval{Start: iv.Start - shift, End: iv.End - shift}})
		}
	}
	for _, a := range t.Activities {
		if !day.Contains(a.Start) {
			continue
		}
		a.Start -= shift
		if end := simtime.Instant(simtime.Day); a.End() > end {
			a.Duration = end.Sub(a.Start)
		}
		out.Activities = append(out.Activities, a)
	}
	for _, ia := range t.Interactions {
		if day.Contains(ia.Time) {
			ia.Time -= shift
			out.Interactions = append(out.Interactions, ia)
		}
	}
	for _, w := range t.WiFi {
		iv := w.Intersect(day)
		if !iv.IsEmpty() {
			out.WiFi = append(out.WiFi, simtime.Interval{Start: iv.Start - shift, End: iv.End - shift})
		}
	}
	return out
}

// screenOffActivities lists day d's screen-off network activities of t
// as schedule request items, at their absolute trace times.
func screenOffActivities(t *trace.Trace, d int) []server.ActivityJSON {
	var out []server.ActivityJSON
	for i, a := range t.ActivitiesOfDay(d) {
		if t.ScreenOnAt(a.Start) {
			continue
		}
		out = append(out, server.ActivityJSON{
			ID:         i,
			TimeSecs:   int64(a.Start),
			Bytes:      a.Bytes(),
			ActiveSecs: a.Duration.Seconds(),
		})
	}
	return out
}
