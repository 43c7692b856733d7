// Package netmaster is a faithful reimplementation of "NetMaster: Taming
// Energy Devourers on Smartphones" (ICPP 2014) as a trace-driven
// simulation library. It bundles everything the paper's system needs:
//
//   - a smartphone usage-trace model and a habit-driven synthetic trace
//     generator calibrated to the paper's measurement study;
//   - an RRC radio power model (3G WCDMA and LTE) with promotion and
//     inactivity-tail structure;
//   - the habit mining component (hourly usage prediction, Eq. 2/3,
//     Special-App detection);
//   - the core scheduling algorithm: multiple knapsack with overlapped
//     itemsets, built on the Ibarra–Kim FPTAS, with the (1−ε)/2 guarantee
//     of Lemma IV.1;
//   - the NetMaster middleware policy (mining + scheduling + exponential
//     duty-cycle real-time adjustment) and the paper's comparators
//     (baseline, offline oracle, naive delay and batch);
//   - an evaluation harness that reproduces every figure of the paper;
//   - an observability layer (sim-time metrics, decision tracing, fleet
//     aggregation and analysis) and an HTTP/JSON daemon (netmaster-serve)
//     that serves the pipelines as a long-running API.
//
// The package re-exports the main types of the internal packages so that
// typical uses need a single import:
//
//	traces, _ := netmaster.GenerateCohort(netmaster.EvalCohort(), 21)
//	model := netmaster.Model3G()
//	policy, _ := netmaster.NewNetMasterPolicy(netmaster.DefaultNetMasterConfig(model))
//	metrics, _ := netmaster.Run(policy, traces[0], model)
//
// The facade is organised into subsystem sections, in pipeline order:
// simulation time → usage traces → synthetic cohorts → radio power →
// habit mining → core scheduling → duty cycling → policies & replay →
// evaluation harness → online middleware & faults → observability &
// fleet → daemon & client. example_test.go carries one runnable example
// per section. Stability policy (docs/api.md): names here are additive
// — CI runs apidiff against the previous release and fails on any
// incompatible change to this package.
package netmaster

import (
	"netmaster/internal/cfgerr"
	"netmaster/internal/core"
	"netmaster/internal/device"
	"netmaster/internal/dutycycle"
	"netmaster/internal/eval"
	"netmaster/internal/faults"
	"netmaster/internal/habit"
	"netmaster/internal/knapsack"
	"netmaster/internal/metrics"
	"netmaster/internal/middleware"
	"netmaster/internal/parallel"
	"netmaster/internal/policy"
	"netmaster/internal/power"
	"netmaster/internal/reqtrace"
	"netmaster/internal/server"
	"netmaster/internal/shard"
	"netmaster/internal/simtime"
	"netmaster/internal/slo"
	"netmaster/internal/synth"
	"netmaster/internal/telemetry"
	"netmaster/internal/telemetry/analyze"
	"netmaster/internal/trace"
	"netmaster/internal/tracing"
)

// ===== Subsystem: parallel evaluation engine =====

// Parallel evaluation engine controls. The evaluation sweeps and the
// scheduler's per-slot knapsack solves fan out over a bounded worker
// pool; results are written by index, so output is bit-identical at any
// parallelism (see docs/performance.md).
var (
	// SetParallelism sets the worker-pool width (1 = fully sequential,
	// the default is GOMAXPROCS). It returns the previous setting.
	SetParallelism = parallel.SetDefaultWorkers
	// Parallelism returns the current worker-pool width.
	Parallelism = parallel.DefaultWorkers
)

// ===== Subsystem: simulation time =====

// Time primitives.
type (
	// Instant is a point in simulation time (seconds from trace start).
	Instant = simtime.Instant
	// Duration is a span of simulation time in seconds.
	Duration = simtime.Duration
	// Interval is a half-open time range.
	Interval = simtime.Interval
)

// Re-exported time constants.
const (
	Second = simtime.Second
	Minute = simtime.Minute
	Hour   = simtime.Hour
	Day    = simtime.Day
	Week   = simtime.Week
)

// ===== Subsystem: usage traces =====

// Trace model.
type (
	// Trace is a complete monitored usage record of one user.
	Trace = trace.Trace
	// AppID identifies an application by package name.
	AppID = trace.AppID
	// NetworkActivity is one recorded transfer burst.
	NetworkActivity = trace.NetworkActivity
	// ScreenSession is one screen-on period.
	ScreenSession = trace.ScreenSession
	// Interaction is one user usage event.
	Interaction = trace.Interaction
	// ActivityKind classifies transfers (sync, push, user, stream).
	ActivityKind = trace.ActivityKind
)

// Activity kinds.
const (
	KindSync       = trace.KindSync
	KindPush       = trace.KindPush
	KindUserDriven = trace.KindUserDriven
	KindStream     = trace.KindStream
)

// ReadTraceFile and WriteTraceFile are the trace (de)serializers.
var (
	ReadTraceFile  = trace.ReadFile
	WriteTraceFile = trace.WriteFile
)

// ===== Subsystem: synthetic cohorts =====

// Synthetic trace generation.
type (
	// UserSpec describes one synthetic user's habit.
	UserSpec = synth.UserSpec
	// AppSpec describes one installed application's behaviour.
	AppSpec = synth.AppSpec
)

// Generator entry points.
var (
	// GenerateTrace produces a deterministic trace for one user spec.
	GenerateTrace = synth.Generate
	// GenerateCohort produces one trace per spec.
	GenerateCohort = synth.GenerateCohort
	// GenerateHistory produces a pre-collection trace for pretraining.
	GenerateHistory = synth.GenerateHistory
	// MotivationCohort is the paper's 8-user measurement cohort.
	MotivationCohort = synth.MotivationCohort
	// EvalCohort is the paper's 3-volunteer evaluation cohort.
	EvalCohort = synth.EvalCohort
	// EvalHistories builds the volunteers' pre-collected traces.
	EvalHistories = synth.EvalHistories
	// ReadSpecsFile and WriteSpecsFile (de)serialize custom cohorts.
	ReadSpecsFile  = synth.ReadSpecsFile
	WriteSpecsFile = synth.WriteSpecsFile
)

// ===== Subsystem: radio power models =====

// Radio power modelling.
type (
	// PowerModel is a parameterised RRC radio model.
	PowerModel = power.Model
	// PowerPhase is one fixed-length radio phase.
	PowerPhase = power.Phase
	// RadioResult is the energy accounting of a radio timeline.
	RadioResult = power.Result
	// RadioBurst is one transfer burst with a tail policy.
	RadioBurst = power.Burst
)

// Stock radio models.
var (
	// Model3G is the WCDMA model used in the paper's evaluation.
	Model3G = power.Model3G
	// ModelLTE is Huang et al.'s LTE model.
	ModelLTE = power.ModelLTE
)

// ===== Subsystem: habit mining =====

// Habit mining.
type (
	// HabitConfig parameterises mining (slot width, δ thresholds).
	HabitConfig = habit.Config
	// HabitProfile is the mining component's output.
	HabitProfile = habit.Profile
	// PredictedNetActivity is one element of the predicted Tn.
	PredictedNetActivity = habit.PredictedNetActivity
)

// Incremental mining. A HabitSketch holds the per-slot sufficient
// statistics of mining, folds traces one day (or one event) at a
// time, and materialises a HabitProfile on demand. Folding day by day
// is byte-identical to MineHabits over the concatenated trace — the
// invariant internal/habit's equivalence tests pin — so a long-lived
// service can absorb each new day in O(new events) instead of
// re-mining the whole history.
type HabitSketch = habit.Sketch

// Mining entry points.
var (
	// MineHabits builds a HabitProfile from a trace.
	MineHabits = habit.Mine
	// NewHabitSketch builds an empty incremental-mining sketch for one
	// user.
	NewHabitSketch = habit.NewSketch
	// DefaultHabitConfig returns the paper's mining settings.
	DefaultHabitConfig = habit.DefaultConfig
	// DetectSpecialApps returns the paper's "Special Apps" allowlist.
	DetectSpecialApps = habit.DetectSpecialApps
)

// ===== Subsystem: core scheduling =====

// Core scheduling (Algorithm 1).
type (
	// Scheduler solves the overlapped multiple knapsack problem.
	Scheduler = core.Scheduler
	// SchedulerConfig parameterises the scheduler.
	SchedulerConfig = core.Config
	// SchedActivity is one screen-off activity to schedule.
	SchedActivity = core.Activity
	// SchedResult is the packing S of Algorithm 1.
	SchedResult = core.Schedule
	// KnapsackItem is a 0/1 knapsack item.
	KnapsackItem = knapsack.Item
	// KnapsackSolution is a selected subset of items.
	KnapsackSolution = knapsack.Solution
	// SchedSolved is the reusable per-slot solve state returned by
	// Scheduler.ScheduleDelta: pass it back on the next call and only
	// the slots whose itemset or capacity changed are re-solved, with
	// untouched solutions spliced in. The delta plan is always equal to
	// a full re-solve.
	SchedSolved = core.Solved
	// SchedDeltaStats counts, per delta re-plan, how many slot
	// knapsacks were reused versus re-solved.
	SchedDeltaStats = core.DeltaStats
)

// Scheduling entry points.
var (
	// NewScheduler builds the overlapped-knapsack scheduler.
	NewScheduler = core.New
	// DefaultSchedulerConfig returns the paper's ε and capacity model.
	DefaultSchedulerConfig = core.DefaultConfig
	// SinKnap is the Ibarra–Kim (1−ε)-approximate knapsack solver.
	SinKnap = knapsack.SinKnap
	// ExactKnapsack solves 0/1 knapsack exactly by DP (small
	// capacities).
	ExactKnapsack = knapsack.Exact
	// BranchBoundKnapsack solves exactly for any capacity.
	BranchBoundKnapsack = knapsack.BranchBound
	// GreedyKnapsack is the classic 1/2-approximation.
	GreedyKnapsack = knapsack.Greedy
)

// ===== Subsystem: duty cycling =====

// Duty cycling (real-time adjustment).
type (
	// DutyScheme generates sleep intervals between radio wake-ups.
	DutyScheme = dutycycle.Scheme
	// DutyResult summarises a duty-cycle simulation.
	DutyResult = dutycycle.Result
)

// Duty-cycle entry points.
var (
	// NewExponentialSleep is the paper's doubling backoff.
	NewExponentialSleep = dutycycle.NewExponential
	// NewFixedSleep and NewRandomSleep are the Fig. 10(b) comparators.
	NewFixedSleep  = dutycycle.NewFixed
	NewRandomSleep = dutycycle.NewRandom
	// SimulateDutyCycle runs a scheme over a horizon.
	SimulateDutyCycle = dutycycle.Simulate
)

// ===== Subsystem: policies and replay =====

// Policies and replay.
type (
	// Policy maps a trace to an execution plan.
	Policy = device.Policy
	// Plan is a policy's complete decision record.
	Plan = device.Plan
	// Execution is one activity's actual run.
	Execution = device.Execution
	// Metrics are the per-trace evaluation results.
	Metrics = device.Metrics
	// NetMasterConfig parameterises the middleware policy.
	NetMasterConfig = policy.NetMasterConfig
	// BaselinePolicy executes everything as recorded.
	BaselinePolicy = policy.Baseline
)

// Policy constructors and replay entry points.
var (
	// NewNetMasterPolicy builds the paper's middleware as a policy.
	NewNetMasterPolicy = policy.NewNetMaster
	// DefaultNetMasterConfig returns the paper's evaluation settings.
	DefaultNetMasterConfig = policy.DefaultNetMasterConfig
	// NewOracle is the offline optimal comparator.
	NewOracle = policy.NewOracle
	// NewDelay and NewBatch are the naive interval-fixed comparators.
	NewDelay = policy.NewDelay
	NewBatch = policy.NewBatch
	// Run replays a policy over a trace and returns its metrics.
	Run = device.Run
	// ComputeMetrics evaluates an explicit plan.
	ComputeMetrics = device.ComputeMetrics
)

// ===== Subsystem: dual-radio Wi-Fi offload =====

// Dual-radio scheduling: a Wi-Fi NIC power model next to the cellular
// RRC machine, per-slot network availability on traces, and policies
// that co-optimise when and on which radio each batch runs. Coverage 0
// (or a nil WiFiModel anywhere one is optional) reproduces the
// cellular-only plans byte for byte.
type (
	// WiFiModel is the Wi-Fi NIC power model: association cost,
	// high/low power states and the batch transfer rate.
	WiFiModel = power.WiFiModel
	// Radio is the interface both radio models implement — the paper's
	// g(·) burst-energy accounting per network.
	Radio = power.Radio
	// Network names the radio an execution ran on.
	Network = power.Network
	// NetworkAvailability is a set of coverage windows, as carried by
	// Trace.WiFi: merged, non-overlapping, chronological intervals
	// during which the Wi-Fi NIC is usable.
	NetworkAvailability = []simtime.Interval
	// WiFiOffloadPolicy is the offload-only baseline: transfers run as
	// recorded, covered ones on the Wi-Fi NIC.
	WiFiOffloadPolicy = policy.WiFiOffload
	// WiFiSweepRow is one coverage point of the dual-radio evaluation
	// sweep.
	WiFiSweepRow = eval.WiFiRow
)

// Radio networks.
const (
	// NetworkCellular is the cellular RRC radio (the default; the
	// zero-value Network means cellular too).
	NetworkCellular = power.NetworkCellular
	// NetworkWiFi is the Wi-Fi NIC.
	NetworkWiFi = power.NetworkWiFi
)

// Dual-radio entry points. Dual-radio NetMaster is configured, not
// separately constructed: set NetMasterConfig.WiFi and the scheduler
// widens each slot to per-network choices; OnlineReplayConfig.WiFi does
// the same for the online middleware's pooled deferral batches.
var (
	// ModelWiFi is the stock Wi-Fi NIC model.
	ModelWiFi = power.ModelWiFi
	// RunRadios replays a policy over a trace metering both radios;
	// Metrics.WiFi carries the NIC's energy accounting.
	RunRadios = device.RunRadios
	// WiFiSweep evaluates offload-only, cellular-only NetMaster and
	// dual-radio NetMaster across Wi-Fi coverage fractions.
	WiFiSweep = eval.WiFiSweep
	// DefaultWiFiCoverageSweep is the coverage figure's x-axis.
	DefaultWiFiCoverageSweep = eval.DefaultWiFiCoverageSweep
)

// ===== Subsystem: evaluation harness =====

// Evaluation harness (figure reproduction).
type (
	// PolicyResult is one policy's outcome on one trace.
	PolicyResult = eval.PolicyResult
	// MotivationStats bundles the Section III headline numbers.
	MotivationStats = eval.MotivationStats
	// Fig7Config selects the live-comparison arms.
	Fig7Config = eval.Fig7Config
	// Fig7Row / Fig8Row / Fig9Row / Fig10cRow are figure data rows.
	Fig7Row   = eval.Fig7Row
	Fig8Row   = eval.Fig8Row
	Fig9Row   = eval.Fig9Row
	Fig10cRow = eval.Fig10cRow
)

// Evaluation entry points.
var (
	// Compare runs the baseline plus the given policies over a trace.
	Compare = eval.Compare
	// CompareCtx is Compare with a cancellation context: the deadline is
	// honoured between policy replays, and a successful result is
	// byte-identical with or without one.
	CompareCtx = eval.CompareCtx
	// Motivation computes the Section III summary over a cohort.
	Motivation = eval.Motivation
	// Fig1a–Fig5 reproduce the motivation study's figures.
	Fig1a = eval.Fig1a
	Fig1b = eval.Fig1b
	Fig2  = eval.Fig2
	Fig3  = eval.Fig3
	Fig4  = eval.Fig4
	Fig5  = eval.Fig5
	// IntraUserPearson measures per-user day-to-day regularity.
	IntraUserPearson = eval.IntraUserPearson
	// Fig7 runs the full live comparison (energy, radio-on, bandwidth).
	Fig7 = eval.Fig7
	// DefaultFig7Config returns the paper's comparison arms.
	DefaultFig7Config = eval.DefaultFig7Config
	// Fig8 and Fig9 are the delay/batch sweeps.
	Fig8 = eval.Fig8
	Fig9 = eval.Fig9
	// Fig10a, Fig10b and Fig10c are the parameter analyses.
	Fig10a = eval.Fig10a
	Fig10b = eval.Fig10b
	Fig10c = eval.Fig10c
	// UserExperience counts wrong decisions (Section VI-B).
	UserExperience = eval.UserExperience
	// Fig7aGapDistribution reproduces the per-test gap headline.
	Fig7aGapDistribution = eval.Fig7aGapDistribution
	// HiddenImpact measures push-delivery latency (Section VII).
	HiddenImpact = eval.HiddenImpact
	// BatteryLife projects hours per charge.
	BatteryLife = eval.BatteryLife
	// DefaultBatteryConfig returns handset-class constants.
	DefaultBatteryConfig = eval.DefaultBatteryConfig
	// CrossModel replays the suite under multiple radio models.
	CrossModel = eval.CrossModel
	// Sensitivity sweeps NetMaster's operational knobs.
	Sensitivity = eval.Sensitivity
	// Drift runs the habit-drift experiment (recency vs uniform mining).
	Drift = eval.Drift
	// DefaultDriftConfig is the shift-work drift scenario.
	DefaultDriftConfig = eval.DefaultDriftConfig
	// DeltaRisk evaluates the impact-based δ selection strategy.
	DeltaRisk = eval.DeltaRisk
	// RenderDayTimeline draws an ASCII radio Gantt for one day.
	RenderDayTimeline = device.RenderDayTimeline
	// EnergyByApp attributes a plan's radio energy to applications.
	EnergyByApp = device.EnergyByApp
	// MetricsByDay slices a plan's metrics per day.
	MetricsByDay = device.MetricsByDay
)

// ===== Subsystem: online middleware and fault injection =====

// Online middleware, fault injection and graceful degradation (see
// docs/robustness.md).
type (
	// OnlineConfig parameterises the online middleware service.
	OnlineConfig = middleware.Config
	// OnlineReplayConfig parameterises the online (deployment-mode)
	// replay of the middleware over a trace.
	OnlineReplayConfig = middleware.ReplayConfig
	// OnlineReplayResult is the online run's outcome.
	OnlineReplayResult = middleware.ReplayResult
	// ChaosConfig parameterises a fault-injected online replay.
	ChaosConfig = middleware.ChaosConfig
	// ChaosResult is a fault-injected run's outcome: plan, health
	// counters, fault statistics and the annotated command log.
	ChaosResult = middleware.ChaosResult
	// RetryPolicy bounds command re-attempts under faults.
	RetryPolicy = middleware.RetryPolicy
	// RollingSchedule maintains one day's schedule incrementally as
	// activities arrive, re-planning through Scheduler.ScheduleDelta so
	// each arrival costs O(changed slots) while the plan stays equal to
	// a full re-solve. OnlineReplayConfig.RollingPlan drives one inside
	// the online replay (observationally; see OnlineReplayResult.Rolling).
	RollingSchedule = middleware.RollingSchedule
	// ServiceHealth is the middleware's fault-handling counters and
	// degradation mode.
	ServiceHealth = middleware.Health
	// ServiceMode is the middleware's degradation state.
	ServiceMode = middleware.Mode
	// FaultConfig is a seeded fault schedule for the injector.
	FaultConfig = faults.Config
	// FaultStats counts injector decisions per effect boundary.
	FaultStats = faults.Stats
	// FaultInjector draws deterministic fault outcomes from a schedule.
	FaultInjector = faults.Injector
	// FaultImpactRow is one fault intensity's mean evaluation outcome.
	FaultImpactRow = eval.FaultImpactRow
)

// Degradation modes.
const (
	// ModeNormal is full operation.
	ModeNormal = middleware.ModeNormal
	// ModeDutyOnly means mining failed: duty-cycle adjustment only.
	ModeDutyOnly = middleware.ModeDutyOnly
	// ModePassThrough means the record DB is unavailable: radio always
	// on until writes succeed again.
	ModePassThrough = middleware.ModePassThrough
)

// Online replay and fault-injection entry points.
var (
	// OnlineReplay drives the middleware service over a trace event by
	// event — the deployment path, as opposed to the offline planner.
	OnlineReplay = middleware.Replay
	// DefaultOnlineReplayConfig returns deployment defaults.
	DefaultOnlineReplayConfig = middleware.DefaultReplayConfig
	// NewRollingSchedule builds an empty rolling plan over a day's
	// predicted active slots.
	NewRollingSchedule = middleware.NewRollingSchedule
	// ChaosReplay runs the online service under a seeded fault
	// schedule with retries, deferral deadline and degraded modes.
	ChaosReplay = middleware.ReplayChaos
	// DefaultChaosConfig returns a chaos configuration whose deadline
	// never fires fault-free.
	DefaultChaosConfig = middleware.DefaultChaosConfig
	// DefaultRetryPolicy is the executor's backoff budget.
	DefaultRetryPolicy = middleware.DefaultRetryPolicy
	// NewFaultInjector builds a deterministic injector from a schedule.
	NewFaultInjector = faults.New
	// UniformFaults builds the single-knob uniform fault schedule.
	UniformFaults = faults.Uniform
	// FaultImpact measures energy saving retained under rising fault
	// intensity.
	FaultImpact = eval.FaultImpact
)

// ===== Subsystem: observability and fleet telemetry =====

// Observability layer (see docs/observability.md): sim-time metrics and
// decision tracing across the middleware, the core scheduler, the duty
// cycle and the evaluation sweeps.
type (
	// MetricsRegistry holds named counters, gauges and histograms with a
	// sim-time-stamped, deterministic JSON snapshot.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a frozen, JSON-serialisable registry view.
	MetricsSnapshot = metrics.Snapshot
	// TraceSink is the bounded ring buffer collecting trace events.
	TraceSink = tracing.Sink
	// TraceEvent is one sim-time-stamped decision/effect record.
	TraceEvent = tracing.Event
	// TraceEventKind classifies trace events.
	TraceEventKind = tracing.Kind
	// TraceHeader is the JSONL header line carrying the format version
	// and the ring's drop count (trace_dropped_total).
	TraceHeader = tracing.Header
	// FleetDevice pairs a device ID with its metrics snapshot for fleet
	// aggregation.
	FleetDevice = telemetry.Device
	// FleetAgg is the multi-device aggregate: counters sum, gauges keep
	// min/mean/max, histograms sum bucket-wise.
	FleetAgg = telemetry.Agg
	// FleetSnapshot is the deterministic fleet-wide export.
	FleetSnapshot = telemetry.FleetSnapshot
	// FleetReport is the trace-analysis roll-up netmaster-analyze
	// prints: per-app attribution, prediction scorecards, deferral
	// distributions, thrash stats and invariant findings.
	FleetReport = analyze.FleetReport
	// DeviceAnalysis is one device's trace analysis.
	DeviceAnalysis = analyze.DeviceReport
	// AnalysisFinding is one typed invariant-audit result.
	AnalysisFinding = analyze.Finding
)

// Observability entry points.
var (
	// NewMetricsRegistry builds an empty metrics registry.
	NewMetricsRegistry = metrics.NewRegistry
	// DefaultMetrics returns the process-wide metrics registry.
	DefaultMetrics = metrics.Default
	// NewTraceSink builds a trace sink holding at most capacity events
	// (<= 0 means the default capacity).
	NewTraceSink = tracing.NewSink
	// DefaultTraceSink returns the process-wide trace sink.
	DefaultTraceSink = tracing.Default
	// SetEvalObservability wires a registry and sink into the evaluation
	// sweeps (Compare, Fig7, FaultImpact, …); two nils unwire them.
	SetEvalObservability = eval.SetObservability
	// AggregateFleet merges per-device snapshots into one fleet
	// aggregate; the result is independent of device order.
	AggregateFleet = telemetry.Aggregate
	// AnalyzeDevice derives one device's report from its trace.
	AnalyzeDevice = analyze.Device
	// AnalyzeFleet rolls device analyses up to the cohort.
	AnalyzeFleet = analyze.Fleet
	// WriteFleetProm writes a fleet snapshot in Prometheus text
	// exposition format.
	WriteFleetProm = telemetry.WriteProm
)

// Extension types.
type (
	// GapDistribution summarises per-test gaps to the oracle.
	GapDistribution = eval.GapDistribution
	// PushLatencyRow is one policy's push-delay summary.
	PushLatencyRow = eval.PushLatencyRow
	// BatteryRow and BatteryConfig belong to the battery projection.
	BatteryRow    = eval.BatteryRow
	BatteryConfig = eval.BatteryConfig
	// AppEnergy is one application's radio-energy share.
	AppEnergy = device.AppEnergy
	// DriftRow and DriftConfig belong to the habit-drift experiment.
	DriftRow    = eval.DriftRow
	DriftConfig = eval.DriftConfig
)

// ===== Subsystem: configuration validation =====

// Typed configuration errors. Every config in the library (OnlineConfig,
// ChaosConfig, SchedulerConfig, ServerConfig, …) has a Validate method
// returning these, so callers can match on the exact failing field.
type (
	// ConfigFieldError is one invalid configuration field: which
	// component, which field, the offending value and why.
	ConfigFieldError = cfgerr.FieldError
	// ConfigErrors collects every invalid field of one Validate pass.
	ConfigErrors = cfgerr.Errors
)

// IsConfigError reports whether err contains a field error for the
// named component and field (e.g. "middleware.Config", "DutyMaxSleep").
var IsConfigError = cfgerr.Is

// ===== Subsystem: daemon and client =====

// The HTTP/JSON daemon (cmd/netmaster-serve) and its typed client. The
// daemon serves mining, scheduling, simulation and fleet telemetry; see
// docs/api.md for the wire format and operational semantics.
type (
	// Server is the daemon: an http.Handler plus its state.
	Server = server.Server
	// ServerConfig parameterises the daemon (address, in-flight bound,
	// cache size, deadlines).
	ServerConfig = server.Config
	// ServerClient is a typed caller for the daemon's API.
	ServerClient = server.Client
	// MineRequest / MineResponse are the POST /v1/mine wire types.
	MineRequest  = server.MineRequest
	MineResponse = server.MineResponse
	// ProfileUpdateRequest / ProfileUpdateResponse are the
	// POST /v1/profile/update wire types: fold new days into a cached
	// profile incrementally instead of re-mining the whole trace.
	ProfileUpdateRequest  = server.ProfileUpdateRequest
	ProfileUpdateResponse = server.ProfileUpdateResponse
	// ScheduleRequest / ScheduleResponse are the POST /v1/schedule wire
	// types.
	ScheduleRequest  = server.ScheduleRequest
	ScheduleResponse = server.ScheduleResponse
	// SimulateRequest / SimulateResponse are the POST /v1/simulate wire
	// types.
	SimulateRequest  = server.SimulateRequest
	SimulateResponse = server.SimulateResponse
	// IngestRequest / IngestResponse are the POST /v1/fleet/ingest wire
	// types; FleetReportResponse is GET /v1/fleet/report's body.
	IngestRequest       = server.IngestRequest
	IngestResponse      = server.IngestResponse
	FleetReportResponse = server.FleetReportResponse
	// GenSpec asks the daemon to synthesise a cohort trace server-side.
	GenSpec = server.GenSpec
	// NetworksJSON is the optional multi-network block of schedule and
	// simulate requests; WiFiNetworkJSON configures its Wi-Fi arm.
	// Requests without one are answered byte-identically to before the
	// block existed.
	NetworksJSON    = server.NetworksJSON
	WiFiNetworkJSON = server.WiFiNetworkJSON
	// ServerStoreStatus summarises the durable state layer on /healthz
	// when the daemon runs with a state directory.
	ServerStoreStatus = server.StoreStatus
	// ClientRetryPolicy bounds the client's transparent retries of 429s,
	// read-only 503s and transient network errors.
	ClientRetryPolicy = server.RetryPolicy
	// HealthResponse is GET /healthz's body.
	HealthResponse = server.HealthResponse
)

// Daemon entry points.
var (
	// NewServer builds a daemon from a ServerConfig.
	NewServer = server.New
	// DefaultServerConfig returns production-shaped daemon defaults.
	DefaultServerConfig = server.DefaultConfig
	// NewServerClient returns a typed client for a running daemon.
	NewServerClient = server.NewClient
	// DefaultClientRetryPolicy retries overload answers a handful of
	// times over roughly a second; opt in with ServerClient.WithRetry.
	DefaultClientRetryPolicy = server.DefaultRetryPolicy
)

// ===== Subsystem: sharded serve tier =====

// Consistent-hash placement and the routing front end: netmaster-serve
// -router proxies /v1/* across N backend daemons by device ID, fans
// fleet-wide reads out to every shard and merges them exactly, and
// splits batch requests into per-shard sub-batches. See docs/api.md.
type (
	// ShardConfig names the backend set and the virtual-node count.
	ShardConfig = shard.Config
	// ShardRing is an immutable consistent-hash ring over the backends;
	// Owner(key) is a pure function of the configuration.
	ShardRing = shard.Ring
	// ServeRouter is the routing front end (an http.Handler).
	ServeRouter = server.Router
	// ServeRouterConfig parameterises the router (backends, in-flight
	// bound, fan-out parallelism, deadlines).
	ServeRouterConfig = server.RouterConfig
	// RouterHealth is the router's GET /healthz body: per-shard health
	// plus the summed fleet size.
	RouterHealth = server.RouterHealthResponse
	// BatchIngestRequest / BatchIngestResponse are the
	// POST /v1/fleet/ingest:batch wire types; the request may carry a
	// request_id idempotency key that makes retries replay-safe.
	BatchIngestRequest  = server.BatchIngestRequest
	BatchIngestResponse = server.BatchIngestResponse
	// BatchScheduleRequest / BatchScheduleResponse are the
	// POST /v1/schedule:batch wire types.
	BatchScheduleRequest  = server.BatchScheduleRequest
	BatchScheduleResponse = server.BatchScheduleResponse
	// BatchItemError is one item's failure inside a batch response.
	BatchItemError = server.BatchItemError
	// DeviceDump is one device's slice of GET /v1/fleet/devices — the
	// shard-merge currency behind routed fleet reports.
	DeviceDump = server.DeviceDump
	// FleetDevicesResponse is GET /v1/fleet/devices's body.
	FleetDevicesResponse = server.FleetDevicesResponse
)

// Sharded serve-tier entry points.
var (
	// NewShardRing builds a placement ring from a ShardConfig.
	NewShardRing = shard.New
	// NewServeRouter builds the routing front end across the configured
	// backends.
	NewServeRouter = server.NewRouter
	// DefaultServeRouterConfig returns production-shaped router
	// defaults; the caller must still provide Backends.
	DefaultServeRouterConfig = server.DefaultRouterConfig
)

// ===== Subsystem: serve-tier request observability =====

// Request tracing, per-endpoint RED metrics, slow-request capture and
// SLO burn tracking across the daemon and the router: every response
// carries an X-Netmaster-Request-Id, spans land in a bounded ring
// served on /debug/requests, and burn rates against configurable p99 /
// error-rate objectives ride /metrics and /healthz. See
// docs/observability.md.
type (
	// RequestSpan is one request's trace record: ID, role, endpoint,
	// hop, shard, status, cache/store disposition and the queue-wait /
	// handle / total millisecond split.
	RequestSpan = reqtrace.Span
	// DebugRequestsResponse is GET /debug/requests's body: ring
	// capacity and totals plus the recent and slowest span sets.
	DebugRequestsResponse = server.DebugRequestsResponse
	// ServeSLOConfig sets the burn-tracking objectives (target p99 in
	// ms, target 5xx rate, trailing window) on ServerConfig.SLO and
	// ServeRouterConfig.SLO; the zero value disables tracking.
	ServeSLOConfig = slo.Config
	// SLOStatus is the burn-tracking block on /healthz: objectives,
	// window fill and the error/latency burn rates.
	SLOStatus = slo.Status
)

// Serve-tier observability entry points.
var (
	// SLOHistogramQuantile interpolates a quantile from an exported
	// latency-histogram snapshot, Prometheus-style — the same math
	// netmaster-bench uses for its server-side report.
	SLOHistogramQuantile = slo.HistogramQuantile
)
