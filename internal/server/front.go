package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"netmaster/internal/cfgerr"
	"netmaster/internal/metrics"
	"netmaster/internal/parallel"
	"netmaster/internal/reqtrace"
	"netmaster/internal/slo"
)

// frontConfig is the part of Config and RouterConfig the request spine
// and the listener read; both roles validate it through one helper.
type frontConfig struct {
	Addr           string
	MaxInFlight    int
	RequestTimeout time.Duration
	ShutdownGrace  time.Duration
	Parallelism    int
	LogWriter      io.Writer
	Metrics        *metrics.Registry
	SlowRequest    time.Duration
	TraceRing      int
	SLO            slo.Config
}

// validate checks the shared fields, reporting errors under component
// ("server.Config" or "server.RouterConfig").
func (c frontConfig) validate(component string) cfgerr.Errors {
	var es cfgerr.Errors
	if c.Addr == "" {
		es = append(es, cfgerr.New(component, "Addr", c.Addr, "must be set"))
	}
	if c.MaxInFlight <= 0 {
		es = append(es, cfgerr.New(component, "MaxInFlight", c.MaxInFlight, "must be positive"))
	}
	if c.RequestTimeout <= 0 {
		es = append(es, cfgerr.New(component, "RequestTimeout", c.RequestTimeout, "must be positive"))
	}
	if c.ShutdownGrace <= 0 {
		es = append(es, cfgerr.New(component, "ShutdownGrace", c.ShutdownGrace, "must be positive"))
	}
	if c.Parallelism < 0 {
		es = append(es, cfgerr.New(component, "Parallelism", c.Parallelism, "must be non-negative"))
	}
	if c.SlowRequest < 0 {
		es = append(es, cfgerr.New(component, "SlowRequest", c.SlowRequest, "must be non-negative"))
	}
	if c.TraceRing < 0 {
		es = append(es, cfgerr.New(component, "TraceRing", c.TraceRing, "must be non-negative"))
	}
	return appendSLOErrors(es, c.SLO)
}

// appendSLOErrors folds a nested slo.Config validation into the
// caller's error list, keeping the slo.Config component name so the
// failing field stays unambiguous.
func appendSLOErrors(es cfgerr.Errors, cfg slo.Config) cfgerr.Errors {
	err := cfg.Validate()
	if err == nil {
		return es
	}
	var sub cfgerr.Errors
	if errors.As(err, &sub) {
		return append(es, sub...)
	}
	if fe, ok := cfgerr.Field(err); ok {
		return append(es, fe)
	}
	return es
}

// front is the request spine and listener lifecycle the daemon and the
// router share: the mux and listener, admission, request IDs, spans,
// SLO tracking, the <role>_* RED series and the access log. Server and
// Router embed it and add only their routes and role-specific state.
type front struct {
	role string // "server" or "router": metric prefix and Span.Role
	cfg  frontConfig

	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener

	sem      chan struct{}
	inflight atomic.Int64

	// Request observability: span ring behind /debug/requests, edge
	// request-ID generation, SLO burn tracking, and an injectable clock
	// so log/span tests can pin time.
	spans   *reqtrace.Ring
	ids     *reqtrace.IDGen
	tracker *slo.Tracker
	now     func() time.Time

	// storeMode, when set, names the durable store's mode for each
	// span; only the daemon with a state dir sets it.
	storeMode func() string

	// <role>_* instrumentation (nil-tolerant handles).
	mRequests  *metrics.Counter
	mErrors    *metrics.Counter
	mRejected  *metrics.Counter
	mTimeouts  *metrics.Counter
	mInflight  *metrics.Gauge
	mLatencyMS *metrics.Histogram
}

// newFront builds the spine for role with /debug/requests routed; the
// caller adds its own routes to mux.
func newFront(role string, cfg frontConfig) *front {
	p := role + "_"
	f := &front{
		role: role,
		cfg:  cfg,
		mux:  http.NewServeMux(),
		sem:  make(chan struct{}, cfg.MaxInFlight),

		spans:   reqtrace.NewRing(cfg.TraceRing, 0),
		ids:     reqtrace.NewIDGen(),
		tracker: slo.NewTracker(cfg.SLO, cfg.Metrics, p),
		now:     time.Now,

		mRequests:  cfg.Metrics.Counter(p + "requests_total"),
		mErrors:    cfg.Metrics.Counter(p + "errors_total"),
		mRejected:  cfg.Metrics.Counter(p + "rejected_total"),
		mTimeouts:  cfg.Metrics.Counter(p + "timeouts_total"),
		mInflight:  cfg.Metrics.Gauge(p + "in_flight"),
		mLatencyMS: cfg.Metrics.Histogram(p+"latency_ms", LatencyBuckets),
	}
	f.mux.HandleFunc("GET /debug/requests", handleDebugRequests(f.spans))
	f.http = &http.Server{Handler: f.mux}
	return f
}

// ServeHTTP makes the daemon and the router usable under httptest
// without a listener.
func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// statusWriter records the status code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// limited wraps an API handler with the full request spine: request-ID
// assignment/propagation, semaphore admission (429 on overload),
// deadline, error mapping, span capture, RED metrics, SLO tracking and
// logging. endpoint keys the per-endpoint series and span records.
func (f *front) limited(endpoint string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	ep := newEndpointObs(f.cfg.Metrics, f.role+"_", endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		arrive := f.now()
		// The edge mints the request ID; a propagated one (router hop)
		// wins. Either way the response echoes it immediately, so even
		// a 429 is correlatable.
		reqID, hop := reqtrace.Incoming(r.Header)
		if reqID == "" {
			reqID = f.ids.Next()
		}
		w.Header().Set(reqtrace.HeaderRequestID, reqID)
		f.mRequests.Inc()
		ep.requests.Inc()
		sp := reqtrace.Span{RequestID: reqID, Role: f.role, Endpoint: endpoint,
			Method: r.Method, Path: r.URL.Path, Hop: hop}
		select {
		case f.sem <- struct{}{}:
		default:
			// Full house: shed immediately. Retry-After is advisory;
			// the bound is requests in flight, not a rate. Rejected
			// requests still span + count, so /debug/requests
			// reconciles exactly with <role>_requests_total.
			f.mRejected.Inc()
			writeError(w, &apiError{Code: http.StatusTooManyRequests,
				Kind: "overloaded", Msg: "too many requests in flight"})
			f.finish(ep, sp, w.Header(), http.StatusTooManyRequests, "overloaded", 0, arrive, arrive)
			return
		}
		f.mInflight.Set(float64(f.inflight.Add(1)))
		ep.enter()
		start := f.now()
		defer func() {
			<-f.sem
			f.mInflight.Set(float64(f.inflight.Add(-1)))
			ep.exit()
		}()

		ctx, cancel := context.WithTimeout(r.Context(), f.cfg.RequestTimeout)
		defer cancel()
		ctx = reqtrace.WithRequestID(ctx, reqID)
		sw := &statusWriter{ResponseWriter: w}
		err := h(sw, r.WithContext(ctx))
		f.mLatencyMS.Observe(durMS(f.now().Sub(start)))
		errKind := ""
		if err != nil {
			f.mErrors.Inc()
			var ae *apiError
			switch {
			case errors.As(err, &ae):
			case errors.Is(err, context.DeadlineExceeded):
				f.mTimeouts.Inc()
				ae = &apiError{Code: http.StatusGatewayTimeout,
					Kind: "timeout", Msg: "request deadline exceeded"}
			default:
				ae = &apiError{Code: http.StatusInternalServerError,
					Kind: "internal", Msg: err.Error()}
			}
			// A handler that already started its body has sent its
			// status; a second envelope would corrupt the body.
			if sw.status == 0 {
				writeError(sw, ae)
			}
			errKind = ae.Kind
		}
		f.finish(ep, sp, sw.Header(), sw.status, errKind, sw.bytes, arrive, start)
	}
}

// finish closes out one request: it completes the span and records it,
// lands the RED and SLO observations, and emits the slow-request and
// access-log lines. start equals arrive on the 429 path (the request
// never reached a handler). The shard comes from the X-Netmaster-Shard
// response header, which only the router sets.
func (f *front) finish(ep *endpointObs, sp reqtrace.Span, hdr http.Header, status int, errKind string, bytes int, arrive, start time.Time) {
	end := f.now()
	sp.Status = status
	sp.ErrKind = errKind
	sp.Shard = hdr.Get(reqtrace.HeaderShard)
	sp.Cache = hdr.Get("X-Netmaster-Cache")
	if f.storeMode != nil {
		sp.StoreMode = f.storeMode()
	}
	sp.QueueWaitMS = durMS(start.Sub(arrive))
	sp.HandleMS = durMS(end.Sub(start))
	sp.TotalMS = durMS(end.Sub(arrive))
	sp.Bytes = bytes
	ep.finish(status, sp.TotalMS)
	f.tracker.Observe(sp.TotalMS, status >= 500)
	f.spans.Record(sp)
	if f.cfg.SlowRequest > 0 && end.Sub(arrive) >= f.cfg.SlowRequest {
		emitLog(f.cfg.LogWriter, slowLine{SlowRequest: sp})
	}
	line := accessLine{
		Method: sp.Method, Path: sp.Path, Status: status, Bytes: bytes,
		Millis: end.Sub(arrive).Milliseconds(), InFlight: f.inflight.Load(),
		RequestID: sp.RequestID, Shard: sp.Shard, Cache: sp.Cache, QueueWaitMS: sp.QueueWaitMS,
	}
	if f.role != "server" {
		line.Role = f.role // the daemon's access line carries no role
	}
	emitLog(f.cfg.LogWriter, line)
}

// Start opens the listener and serves until Shutdown. It returns once
// the listener is accepting, with the bound address in Addr().
func (f *front) Start() error {
	ln, err := net.Listen("tcp", f.cfg.Addr)
	if err != nil {
		return fmt.Errorf("%s: listen %s: %w", f.role, f.cfg.Addr, err)
	}
	f.ln = ln
	go f.http.Serve(ln)
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (f *front) Addr() string {
	if f.ln == nil {
		return f.cfg.Addr
	}
	return f.ln.Addr().String()
}

// Shutdown drains in-flight requests within the configured grace and
// tears the listener down.
func (f *front) Shutdown(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, f.cfg.ShutdownGrace)
	defer cancel()
	return f.http.Shutdown(dctx)
}

// InFlight returns the number of API requests currently being served.
func (f *front) InFlight() int64 { return f.inflight.Load() }

// workers is the bounded fan-out width for per-request parallel work.
func (f *front) workers() int {
	if f.cfg.Parallelism > 0 {
		return f.cfg.Parallelism
	}
	return parallel.DefaultWorkers()
}
