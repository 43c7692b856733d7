package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netmaster/internal/metrics"
)

// setIndent is the oracle encodeIndented must match byte for byte.
func setIndent(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkIndented compares encodeIndented against the oracle, then feeds
// the compact encoding to an indenter split across two Write calls at
// every point, through a small buffer so flushes land mid-token too.
func checkIndented(t *testing.T, v any) {
	t.Helper()
	want := setIndent(t, v)
	var got bytes.Buffer
	if err := encodeIndented(&got, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("encodeIndented differs from SetIndent:\n got %q\nwant %q", got.Bytes(), want)
	}
	var compact bytes.Buffer
	if err := json.NewEncoder(&compact).Encode(v); err != nil {
		t.Fatal(err)
	}
	in := compact.Bytes()
	for k := 0; k <= len(in); k++ {
		var out bytes.Buffer
		out.Grow(len(want))
		iw := &indentWriter{dst: &out, buf: make([]byte, 0, 61)}
		iw.Write(in[:k])
		iw.Write(in[k:])
		if err := iw.flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("split at %d of %q:\n got %q\nwant %q", k, in, out.Bytes(), want)
		}
	}
}

// nest wraps v in depth alternating array/object levels.
func nest(v any, depth int) any {
	for i := 0; i < depth; i++ {
		if i%2 == 0 {
			v = []any{v}
		} else {
			v = map[string]any{"k": v}
		}
	}
	return v
}

// spacedJSON marshals to valid but whitespace-laden JSON, which the
// encoder compacts before the indenter sees it.
type spacedJSON struct{}

func (spacedJSON) MarshalJSON() ([]byte, error) {
	return []byte("{ \"a\" : [ 1 , { } , [ ] ] ,\n\t\"b\" : \"x y\" }"), nil
}

func TestEncodeIndentedMatchesSetIndent(t *testing.T) {
	cases := map[string]any{
		"null":         nil,
		"number":       1.5,
		"negative":     json.Number("-0.25e-7"),
		"bool":         true,
		"empty string": "",
		"html":         `<a href="x?y=1&z=2">link</a>`,
		"invalid utf8": "ok\xff\xfe\xc3(",
		"escapes":      "quote\" backslash\\ slash/ \b\f\n\r\t \u2028\u2029 \x00\x1f",
		"punctuation":  `{"a":[1,2]},:[]\`,
		"trailing esc": `ends with \`,
		"empty map":    map[string]any{},
		"empty slice":  []int{},
		"nil slice":    []int(nil),
		"nested empty": map[string]any{"a": map[string]any{}, "b": []any{}, "c": []any{map[string]any{}, []any{}}},
		"keys":         map[string]any{`k"1`: 1, `k\2`: 2, "<k3>": 3, "k:4": 4, "k,5": 5},
		"raw message":  map[string]json.RawMessage{"r": json.RawMessage(" [ 1 ,\n 2 ] ")},
		"marshaler":    []any{spacedJSON{}, spacedJSON{}},
		"deep":         nest("leaf", 80),
		"deep empty":   nest(map[string]any{}, 41),
		"api":          FleetReportResponse{},
		"envelope":     struct{ Error *apiError }{&apiError{Code: 400, Kind: "bad_json", Msg: "<bad> \"json\""}},
	}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) { checkIndented(t, v) })
	}
}

// FuzzEncodeIndented differentially tests encodeIndented against
// json.Encoder with SetIndent("", "  "). doc is decoded as JSON when it
// parses and is otherwise carried as a raw string (HTML, invalid UTF-8,
// quotes and backslashes); s becomes a key and a value; depth
// nests the lot past the precomputed indent run. The corpus is seeded
// with the server goldens.
func FuzzEncodeIndented(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden seeds: %v", err)
	}
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, "", uint8(0))
	}
	f.Add([]byte(`{"a":{},"b":[],"c":[{},[]],"d":"<&>"}`), "\xff<\"\\,:{}[]>", uint8(40))
	f.Fuzz(func(t *testing.T, doc []byte, s string, depth uint8) {
		var v any
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.UseNumber()
		if dec.Decode(&v) != nil {
			v = string(doc)
		}
		checkIndented(t, nest([]any{v, map[string]any{s: s, "{}": map[string]any{}, "[]": []any{}}}, int(depth)))
	})
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n      int
	writes int
}

var errBrokenPipe = errors.New("broken pipe")

func (w *failAfter) Write(p []byte) (int, error) {
	w.writes++
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errBrokenPipe
	}
	w.n -= len(p)
	return len(p), nil
}

// TestEncodeIndentedWriteError pins that a writer failure is returned,
// whether it hits a mid-body flush or the final one, and that nothing
// more is written after it.
func TestEncodeIndentedWriteError(t *testing.T) {
	big := make([]string, 5000)
	for i := range big {
		big[i] = strings.Repeat("x", 20)
	}
	for name, tc := range map[string]struct {
		v     any
		n     int
		flush int // Write calls expected, the failing one included
	}{
		"mid-body":   {big, indentBufSize, 2},
		"final":      {map[string]int{"a": 1}, 3, 1},
		"first byte": {big, 0, 1},
	} {
		t.Run(name, func(t *testing.T) {
			w := &failAfter{n: tc.n}
			if err := encodeIndented(w, tc.v); !errors.Is(err, errBrokenPipe) {
				t.Fatalf("err = %v, want %v", err, errBrokenPipe)
			}
			if w.writes != tc.flush {
				t.Fatalf("%d writes, want %d (none after the failure)", w.writes, tc.flush)
			}
		})
	}
}

// TestEncodeIndentedMarshalErrorWritesNothing: a value the encoder
// rejects produces no output at all.
func TestEncodeIndentedMarshalErrorWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	if err := encodeIndented(&buf, map[string]float64{"x": math.NaN()}); err == nil {
		t.Fatal("NaN encoded without error")
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %q on a marshal error", buf.Bytes())
	}
}

// spine is one request spine under test: the daemon's or the router's.
type spine struct {
	role string
	*front
	reg *metrics.Registry
}

func spines(t *testing.T) []spine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Metrics = metrics.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := DefaultRouterConfig()
	rcfg.Backends = []string{"http://127.0.0.1:1"}
	rcfg.Metrics = metrics.NewRegistry()
	rt, err := NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return []spine{
		{"server", s.front, cfg.Metrics},
		{"router", rt.front, rcfg.Metrics},
	}
}

// TestSpineMarshalFailureAnswersCleanError: a body that fails to
// marshal has sent nothing, so the client gets one typed 500 envelope
// and the span records that 500.
func TestSpineMarshalFailureAnswersCleanError(t *testing.T) {
	for _, sp := range spines(t) {
		t.Run(sp.role, func(t *testing.T) {
			h := sp.limited("probe", func(w http.ResponseWriter, r *http.Request) error {
				return writeJSON(w, http.StatusOK, map[string]float64{"x": math.NaN()})
			})
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest(http.MethodGet, "/probe", nil))
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500", rec.Code)
			}
			dec := json.NewDecoder(rec.Body)
			var env struct{ Error apiError }
			if err := dec.Decode(&env); err != nil || env.Error.Kind != "internal" {
				t.Fatalf("envelope %+v (err %v), want kind internal", env, err)
			}
			if _, err := dec.Token(); err != io.EOF {
				t.Fatalf("trailing bytes after the envelope: %v", err)
			}
			got := sp.spans.Recent(1)[0]
			if got.Status != http.StatusInternalServerError || got.ErrKind != "internal" {
				t.Fatalf("span status %d kind %q, want 500 internal", got.Status, got.ErrKind)
			}
			if n := sp.reg.Snapshot().Counters[sp.role+"_http_probe_errors_5xx_total"]; n != 1 {
				t.Fatalf("5xx count %d, want 1", n)
			}
		})
	}
}

// brokenBody commits headers but fails every body write, like a client
// that hung up mid-response.
type brokenBody struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *brokenBody) Write([]byte) (int, error) {
	w.writes++
	return 0, errBrokenPipe
}

// TestSpineErrorAfterBodyStarted: once the status went out with the
// first body byte, a failing handler gets no second envelope, and the
// span and RED series record the 200 the client saw — not a 5xx.
func TestSpineErrorAfterBodyStarted(t *testing.T) {
	for _, sp := range spines(t) {
		t.Run(sp.role, func(t *testing.T) {
			h := sp.limited("probe", func(w http.ResponseWriter, r *http.Request) error {
				return writeJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
			})
			w := &brokenBody{ResponseRecorder: httptest.NewRecorder()}
			h(w, httptest.NewRequest(http.MethodGet, "/probe", nil))
			if w.Code != http.StatusOK || w.writes != 1 {
				t.Fatalf("status %d after %d body writes, want 200 after 1", w.Code, w.writes)
			}
			got := sp.spans.Recent(1)[0]
			if got.Status != http.StatusOK || got.ErrKind != "internal" {
				t.Fatalf("span status %d kind %q, want 200 with the handler's error kind", got.Status, got.ErrKind)
			}
			if n := sp.reg.Snapshot().Counters[sp.role+"_http_probe_errors_5xx_total"]; n != 0 {
				t.Fatalf("5xx count %d for a 200 response", n)
			}
		})
	}
}

// TestSpineShedsWhenFull: with every admission slot taken, both roles
// answer 429 with Retry-After without running the handler, count the
// rejection and record an "overloaded" span.
func TestSpineShedsWhenFull(t *testing.T) {
	for _, sp := range spines(t) {
		t.Run(sp.role, func(t *testing.T) {
			h := sp.limited("probe", func(w http.ResponseWriter, r *http.Request) error {
				t.Error("handler ran with the semaphore full")
				return nil
			})
			for i := 0; i < cap(sp.sem); i++ {
				sp.sem <- struct{}{}
			}
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest(http.MethodGet, "/probe", nil))
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("status %d with full semaphore, want 429", rec.Code)
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			if n := sp.reg.Snapshot().Counters[sp.role+"_rejected_total"]; n != 1 {
				t.Errorf("%s_rejected_total %d, want 1", sp.role, n)
			}
			got := sp.spans.Recent(1)[0]
			if got.Status != http.StatusTooManyRequests || got.ErrKind != "overloaded" || got.Role != sp.role {
				t.Errorf("span status %d kind %q role %q, want 429 overloaded %s", got.Status, got.ErrKind, got.Role, sp.role)
			}
		})
	}
}

// TestSpineLatencyFractionalMillis: <role>_latency_ms observes handle
// time in fractional milliseconds, like the per-endpoint histograms. A
// clock stepping 5.5 ms puts one 5.5 ms handle phase (start to
// after-handler reading) in the <=10 bucket, not 5 in <=5.
func TestSpineLatencyFractionalMillis(t *testing.T) {
	for _, sp := range spines(t) {
		t.Run(sp.role, func(t *testing.T) {
			sp.now = fakeClock(5500 * time.Microsecond)
			h := sp.limited("probe", func(w http.ResponseWriter, r *http.Request) error {
				return writeJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
			})
			h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/probe", nil))
			hs := sp.reg.Snapshot().Histograms[sp.role+"_latency_ms"]
			if hs.Count != 1 || hs.Sum != 5.5 {
				t.Fatalf("count %d sum %v, want 1 observation of 5.5", hs.Count, hs.Sum)
			}
			for i, b := range hs.Bounds { // cumulative counts
				want := int64(0)
				if b >= 10 {
					want = 1
				}
				if hs.Buckets[i] != want {
					t.Errorf("bucket <=%v holds %d, want %d", b, hs.Buckets[i], want)
				}
			}
		})
	}
}
