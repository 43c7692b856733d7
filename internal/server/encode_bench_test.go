package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// writeJSONSetIndent is the previous writeJSON: the status goes out
// first, then json.Encoder marshals compactly and re-indents the whole
// document through SetIndent before one write.
func writeJSONSetIndent(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// discardResponse is a ResponseWriter that drops the body, so the
// benchmark times encoding alone.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkWriteJSONFleetReport encodes the fleet report of 4000
// devices — the replay cohort's metrics snapshots cloned across device
// IDs — through the SetIndent path (old) and the streaming indenter
// (new), after checking the two bodies are byte-identical. "speedup"
// times both arms in one iteration and reports the ratio.
func BenchmarkWriteJSONFleetReport(b *testing.B) {
	cohort := replayCohort(b, 7)
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		s.fleet[fmt.Sprintf("bench/dev-%06d", i)] = ingested{metrics: cohort[i%len(cohort)].Metrics}
	}
	doc, err := s.fleetDoc("3g")
	if err != nil {
		b.Fatal(err)
	}
	oldRec, newRec := httptest.NewRecorder(), httptest.NewRecorder()
	if err := writeJSONSetIndent(oldRec, http.StatusOK, doc); err != nil {
		b.Fatal(err)
	}
	if err := writeJSON(newRec, http.StatusOK, doc); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(oldRec.Body.Bytes(), newRec.Body.Bytes()) {
		b.Fatal("streaming indenter differs from SetIndent on the fleet report")
	}
	b.Logf("fleet report body: %d bytes", newRec.Body.Len())
	w := &discardResponse{h: http.Header{}}

	b.Run("old-setindent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeJSONSetIndent(w, http.StatusOK, doc)
		}
	})
	b.Run("new-streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeJSON(w, http.StatusOK, doc)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			start := time.Now()
			writeJSONSetIndent(w, http.StatusOK, doc)
			old := time.Since(start)
			start = time.Now()
			writeJSON(w, http.StatusOK, doc)
			b.ReportMetric(float64(old)/float64(time.Since(start)), "speedup-x")
		}
	})
}
