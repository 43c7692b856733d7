// Package faults is a deterministic, seeded fault injector for the
// online middleware's effect boundaries. The paper's real-time
// adjustment layer exists because predictions miss and the radio
// misbehaves in the field; this package makes that misbehaviour a
// first-class, reproducible input: radio commands that error or
// silently no-op, transient transfer failures, monitoring-DB write
// errors, corrupt-or-empty mining outputs, and dropped, duplicated or
// reordered device events.
//
// Every decision is drawn from a seeded generator in the single
// deterministic order the replay loop consumes them, so a fault
// schedule is identified entirely by its Config (including the seed):
// two runs with the same trace and the same Config inject exactly the
// same faults and must produce bit-identical results, which the chaos
// soak tests assert.
package faults

import (
	"fmt"
	"math/rand"

	"netmaster/internal/simtime"
)

// Op identifies one effect boundary an outcome applies to.
type Op int

const (
	// OpRadioEnable and OpRadioDisable are the data-switch commands
	// ("svc data enable/disable" on the Android implementation).
	OpRadioEnable Op = iota
	OpRadioDisable
	// OpTriggerSync is a triggered background sync of a Special App.
	OpTriggerSync
	// OpTransfer is one deferred screen-off transfer being served.
	OpTransfer
	// OpDBWrite is one monitoring record reaching the record DB.
	OpDBWrite
	// OpMine is one midnight mining run.
	OpMine
	numOps
)

var opNames = [...]string{"radio-enable", "radio-disable", "trigger-sync", "transfer", "db-write", "mine"}

// String names the op.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Outcome is the injector's decision for one operation.
type Outcome int

const (
	// OK lets the operation proceed normally.
	OK Outcome = iota
	// Fail makes the operation return an error.
	Fail
	// Silent makes the operation report success without taking effect
	// (a radio command the baseband acknowledged but never applied).
	Silent
	// Corrupt makes the operation succeed with garbage output (a mining
	// run producing an unusable profile).
	Corrupt
	// Empty makes the operation succeed with a vacuous output (a mining
	// run producing a profile with no history behind it).
	Empty
)

var outcomeNames = [...]string{"ok", "fail", "silent", "corrupt", "empty"}

// String names the outcome.
func (o Outcome) String() string {
	if o < 0 || int(o) >= len(outcomeNames) {
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
	return outcomeNames[o]
}

// Config is a complete fault schedule: per-boundary probabilities, the
// outage windows, the event-stream perturbation rates, and the seed
// that makes the whole schedule reproducible.
type Config struct {
	Seed int64

	// RadioFailProb is the chance a radio enable/disable returns an
	// error; RadioSilentProb the chance it reports success but has no
	// effect. Their sum must stay within [0,1].
	RadioFailProb   float64
	RadioSilentProb float64
	// SyncFailProb is the chance a triggered sync errors.
	SyncFailProb float64
	// TransferFailProb is the chance a deferred transfer fails
	// transiently when served (it stays pending and is retried).
	TransferFailProb float64
	// DBWriteFailProb is the chance a monitoring record write errors.
	DBWriteFailProb float64
	// MineFailProb, MineCorruptProb and MineEmptyProb decide the
	// midnight mining run: error, garbage profile, or empty profile.
	// Their sum must stay within [0,1].
	MineFailProb    float64
	MineCorruptProb float64
	MineEmptyProb   float64

	// DropEventProb, DupEventProb and ReorderEventProb perturb the
	// device event stream: an event vanishes, is delivered twice, or is
	// delivered late (shifted up to ReorderMaxShift positions).
	DropEventProb    float64
	DupEventProb     float64
	ReorderEventProb float64
	// ReorderMaxShift bounds how many positions a reordered event slips
	// (0 means the default of 3).
	ReorderMaxShift int

	// RadioOutages are windows during which every radio command fails
	// outright, regardless of the probabilities — the radio analogue of
	// driving through a tunnel.
	RadioOutages []simtime.Interval

	// WiFiOutages are windows during which the Wi-Fi NIC is unreachable
	// even where the trace records coverage — the AP rebooted, or the
	// device roamed out mid-dwell. Unlike RadioOutages they fail no
	// radio commands: a dual-radio middleware is expected to notice and
	// fall back to cellular for transfers it would have offloaded.
	WiFiOutages []simtime.Interval
}

// Uniform returns a schedule with every failure probability set to p
// (silent/corrupt/empty variants at p/2) under the given seed — the
// single-knob fault intensity the soak tests and the evaluation sweep
// use.
func Uniform(seed int64, p float64) Config {
	return Config{
		Seed:             seed,
		RadioFailProb:    p,
		RadioSilentProb:  p / 2,
		SyncFailProb:     p,
		TransferFailProb: p,
		DBWriteFailProb:  p,
		MineFailProb:     p,
		MineCorruptProb:  p / 2,
		MineEmptyProb:    p / 2,
		DropEventProb:    p / 4,
		DupEventProb:     p / 4,
		ReorderEventProb: p / 4,
	}
}

// Validate checks the schedule's probabilities.
func (c Config) Validate() error {
	probs := []struct {
		name string
		p    float64
	}{
		{"radio fail + silent", c.RadioFailProb + c.RadioSilentProb},
		{"sync fail", c.SyncFailProb},
		{"transfer fail", c.TransferFailProb},
		{"db write fail", c.DBWriteFailProb},
		{"mine fail + corrupt + empty", c.MineFailProb + c.MineCorruptProb + c.MineEmptyProb},
		{"event drop", c.DropEventProb},
		{"event dup", c.DupEventProb},
		{"event reorder", c.ReorderEventProb},
	}
	for _, pr := range probs {
		if pr.p < 0 || pr.p > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", pr.name, pr.p)
		}
	}
	for _, single := range []float64{c.RadioFailProb, c.RadioSilentProb, c.MineFailProb, c.MineCorruptProb, c.MineEmptyProb} {
		if single < 0 {
			return fmt.Errorf("faults: negative probability %v", single)
		}
	}
	if c.ReorderMaxShift < 0 {
		return fmt.Errorf("faults: negative reorder shift %d", c.ReorderMaxShift)
	}
	for _, iv := range c.RadioOutages {
		if iv.End < iv.Start {
			return fmt.Errorf("faults: inverted outage window %v", iv)
		}
	}
	for _, iv := range c.WiFiOutages {
		if iv.End < iv.Start {
			return fmt.Errorf("faults: inverted wifi outage window %v", iv)
		}
	}
	return nil
}

// IsZero reports whether the schedule injects nothing: no fault
// probabilities and no outages. A zero schedule's injector always
// answers OK, so a chaos replay under it is bit-identical to the plain
// replay.
func (c Config) IsZero() bool {
	return c.RadioFailProb == 0 && c.RadioSilentProb == 0 && c.SyncFailProb == 0 &&
		c.TransferFailProb == 0 && c.DBWriteFailProb == 0 &&
		c.MineFailProb == 0 && c.MineCorruptProb == 0 && c.MineEmptyProb == 0 &&
		c.DropEventProb == 0 && c.DupEventProb == 0 && c.ReorderEventProb == 0 &&
		len(c.RadioOutages) == 0 && len(c.WiFiOutages) == 0
}

// WiFiDown reports whether the Wi-Fi NIC sits inside an outage window
// at t. The check consumes no randomness, so adding or removing outage
// windows never shifts the draw order of the probabilistic boundaries.
// A nil injector reports no outages.
func (in *Injector) WiFiDown(t simtime.Instant) bool {
	if in == nil {
		return false
	}
	for _, iv := range in.cfg.WiFiOutages {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// Stats counts the injector's decisions per boundary.
type Stats struct {
	// Decisions[op] is how many times the boundary was consulted;
	// Injected[op] how many of those drew a non-OK outcome.
	Decisions [numOps]int
	Injected  [numOps]int
}

// InjectedFor returns how many non-OK outcomes the boundary drew.
func (s Stats) InjectedFor(op Op) int { return s.Injected[op] }

// TotalInjected sums injected faults across all boundaries.
func (s Stats) TotalInjected() int {
	n := 0
	for _, v := range s.Injected {
		n += v
	}
	return n
}

// String renders the non-zero counters.
func (s Stats) String() string {
	out := ""
	for op := Op(0); op < numOps; op++ {
		if s.Decisions[op] == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d/%d", op, s.Injected[op], s.Decisions[op])
	}
	if out == "" {
		return "no decisions"
	}
	return out
}

// Injector draws outcomes for a fault schedule. A nil *Injector is
// valid and always answers OK, so fault-free call sites need no
// branching. Injector is not safe for concurrent use: the replay loop
// that owns it is single-threaded, which is what keeps the draw order
// — and therefore the whole schedule — deterministic.
type Injector struct {
	cfg   Config
	rng   *rand.Rand
	stats Stats
}

// New builds an injector for the schedule.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Config returns the injector's schedule.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Stats returns a snapshot of the decision counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Decide draws the outcome for one operation at the given instant.
// A nil injector always answers OK.
func (in *Injector) Decide(op Op, t simtime.Instant) Outcome {
	if in == nil {
		return OK
	}
	in.stats.Decisions[op]++
	out := in.decide(op, t)
	if out != OK {
		in.stats.Injected[op]++
	}
	return out
}

func (in *Injector) decide(op Op, t simtime.Instant) Outcome {
	switch op {
	case OpRadioEnable, OpRadioDisable:
		for _, iv := range in.cfg.RadioOutages {
			if iv.Contains(t) {
				return Fail
			}
		}
		// One draw decides both failure modes so the schedule does not
		// shift when only one probability changes to zero.
		r := in.rng.Float64()
		switch {
		case r < in.cfg.RadioFailProb:
			return Fail
		case r < in.cfg.RadioFailProb+in.cfg.RadioSilentProb:
			return Silent
		}
	case OpTriggerSync:
		if in.rng.Float64() < in.cfg.SyncFailProb {
			return Fail
		}
	case OpTransfer:
		if in.rng.Float64() < in.cfg.TransferFailProb {
			return Fail
		}
	case OpDBWrite:
		if in.rng.Float64() < in.cfg.DBWriteFailProb {
			return Fail
		}
	case OpMine:
		r := in.rng.Float64()
		switch {
		case r < in.cfg.MineFailProb:
			return Fail
		case r < in.cfg.MineFailProb+in.cfg.MineCorruptProb:
			return Corrupt
		case r < in.cfg.MineFailProb+in.cfg.MineCorruptProb+in.cfg.MineEmptyProb:
			return Empty
		}
	}
	return OK
}

// EventFault is the perturbation of one event in a delivery stream.
type EventFault struct {
	// Drop removes the event entirely.
	Drop bool
	// Dup delivers the event a second time, immediately after itself.
	Dup bool
	// Delay delivers the event this many positions later than recorded
	// — the late-broadcast reordering case. The consumer clamps the
	// event's timestamp to its actual delivery time.
	Delay int
}

// defaultReorderShift bounds event delays when the schedule leaves
// ReorderMaxShift at zero.
const defaultReorderShift = 3

// EventSchedule draws one perturbation per event of an n-event stream,
// in stream order. A dropped event consumes its dup/reorder draws too,
// so the draw count depends only on n and the drop decisions — keeping
// identical configs on identical streams bit-reproducible. A nil
// injector returns nil (no perturbation).
func (in *Injector) EventSchedule(n int) []EventFault {
	if in == nil || n <= 0 {
		return nil
	}
	shift := in.cfg.ReorderMaxShift
	if shift == 0 {
		shift = defaultReorderShift
	}
	out := make([]EventFault, n)
	for i := range out {
		drop := in.rng.Float64() < in.cfg.DropEventProb
		dup := in.rng.Float64() < in.cfg.DupEventProb
		reorder := in.rng.Float64() < in.cfg.ReorderEventProb
		if drop {
			out[i].Drop = true
			continue
		}
		out[i].Dup = dup
		if reorder {
			out[i].Delay = 1 + int(in.rng.Int63n(int64(shift)))
		}
	}
	return out
}

// splitmix64 is the SplitMix64 mixer; it turns a counter into a
// well-distributed 64-bit value, giving Backoff deterministic jitter
// without consuming state from any shared generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Backoff returns the wait before retry number attempt (0-based):
// base·2^attempt capped at max, plus deterministic jitter in
// [0, base/2] derived from (key, attempt). The jitter decorrelates
// retry storms across commands while keeping every run reproducible —
// the same key and attempt always jitter identically.
func Backoff(base, max simtime.Duration, attempt int, key uint64) simtime.Duration {
	if base <= 0 {
		base = 1
	}
	if max < base {
		max = base
	}
	d := base
	for i := 0; i < attempt; i++ {
		if d > max/2 {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	span := int64(base)/2 + 1
	jitter := simtime.Duration(int64(splitmix64(key^uint64(attempt)*0x9e3779b97f4a7c15) % uint64(span)))
	return d + jitter
}
