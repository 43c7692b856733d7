package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netmaster/internal/reqtrace"
)

// call is one timed HTTP exchange as the generator saw it. The
// instrumented transport fills the wire-level fields; the request ID
// joins the call to the daemon's own span on /debug/requests.
type call struct {
	ReqID     string
	Endpoint  string
	Start     time.Time
	End       time.Time
	ReqBytes  int64
	RespBytes int64
	Status    int
	Err       error
	// Capture asks the transport to keep the response body in Body.
	Capture bool
	Body    []byte
}

func (c *call) ms() float64 { return durMS(c.End.Sub(c.Start)) }

type callKey struct{}

// instrumented stamps each request with its call's request ID and
// counts (and optionally keeps) the bytes that cross the wire.
type instrumented struct{ base http.RoundTripper }

func (t instrumented) RoundTrip(req *http.Request) (*http.Response, error) {
	c, _ := req.Context().Value(callKey{}).(*call)
	if c == nil {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqtrace.HeaderRequestID, c.ReqID)
	c.ReqBytes = req.ContentLength
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	c.Status = resp.StatusCode
	resp.Body = &countingBody{rc: resp.Body, c: c}
	return resp, nil
}

// countingBody drains the rest of the body on Close, so a decoder that
// stops at the end of the JSON value still leaves the whole body counted
// (and captured) and the connection reusable.
type countingBody struct {
	rc io.ReadCloser
	c  *call
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.c.RespBytes += int64(n)
	if b.c.Capture {
		b.c.Body = append(b.c.Body, p[:n]...)
	}
	return n, err
}

func (b *countingBody) Close() error {
	io.Copy(io.Discard, readerFunc(b.Read))
	return b.rc.Close()
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// callLog collects the timed calls of one daemon lifetime.
type callLog struct {
	prefix string
	seq    atomic.Int64
	mu     sync.Mutex
	calls  []*call
}

// begin opens a call and returns the context that carries it.
func (l *callLog) begin(ctx context.Context, endpoint string) (context.Context, *call) {
	c := &call{
		ReqID:    fmt.Sprintf("%s-%06d", l.prefix, l.seq.Add(1)),
		Endpoint: endpoint,
		Start:    time.Now(),
	}
	return context.WithValue(ctx, callKey{}, c), c
}

// end closes a call and keeps it in the log.
func (l *callLog) end(c *call, err error) {
	c.End = time.Now()
	c.Err = err
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *callLog) byEndpoint(ep string) []*call {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*call
	for _, c := range l.calls {
		if c.Endpoint == ep {
			out = append(out, c)
		}
	}
	return out
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: instrumented{base: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}}
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quant is an exact order statistic with the context a reader needs to
// trust it: how many samples it came from, and how many lie beyond it.
type quant struct {
	Name   string  `json:"name"`
	Q      float64 `json:"q"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(name string, xs []float64, q float64) quant {
	out := quant{Name: name, Q: q, N: len(xs)}
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	out.Value = xs[rank]
	out.Beyond = len(xs) - sort.SearchFloat64s(xs, math.Nextafter(out.Value, math.Inf(1)))
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
