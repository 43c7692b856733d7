package telemetry

// Prometheus text-exposition export of a fleet snapshot, so a cohort's
// aggregate can be scraped into, or imported by, standard dashboards.
// The output is deterministic: metric families and label sets are
// emitted in sorted order and floats use Go's shortest round-trip
// formatting.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteProm writes the snapshot in Prometheus text exposition format
// (version 0.0.4). Counters export their fleet total as a counter
// family; gauges export min/mean/max as a gauge family with a stat
// label; histograms export cumulative _bucket series with le labels plus
// _sum and _count. Metric names are sanitised to the Prometheus charset
// and prefixed with prefix (unchanged when prefix is empty).
func WriteProm(w io.Writer, prefix string, fs FleetSnapshot) error {
	bw := &errWriter{w: w}
	bw.printf("# Fleet snapshot: %d devices, sim_time %d\n", fs.Devices, int64(fs.SimTime))
	bw.printf("# TYPE %s gauge\n%s %d\n", promName(prefix, "fleet_devices"), promName(prefix, "fleet_devices"), fs.Devices)
	bw.printf("# TYPE %s gauge\n%s %d\n", promName(prefix, "fleet_sim_time_seconds"), promName(prefix, "fleet_sim_time_seconds"), int64(fs.SimTime))
	for _, name := range sortedKeys(fs.Counters) {
		st := fs.Counters[name]
		pn := promName(prefix, name)
		bw.printf("# TYPE %s counter\n%s %d\n", pn, pn, st.Total)
	}
	for _, name := range sortedKeys(fs.Gauges) {
		st := fs.Gauges[name]
		pn := promName(prefix, name)
		bw.printf("# TYPE %s gauge\n", pn)
		bw.printf("%s{stat=\"min\"} %s\n", pn, promFloat(st.Min))
		bw.printf("%s{stat=\"mean\"} %s\n", pn, promFloat(st.Mean))
		bw.printf("%s{stat=\"max\"} %s\n", pn, promFloat(st.Max))
	}
	for _, name := range sortedKeys(fs.Histograms) {
		st := fs.Histograms[name]
		pn := promName(prefix, name)
		bw.printf("# TYPE %s histogram\n", pn)
		for i, b := range st.Bounds {
			bw.printf("%s_bucket{le=\"%s\"} %d\n", pn, promFloat(b), st.Buckets[i])
		}
		bw.printf("%s_bucket{le=\"+Inf\"} %d\n", pn, st.Count)
		bw.printf("%s_sum %s\n", pn, promFloat(st.Sum))
		bw.printf("%s_count %d\n", pn, st.Count)
	}
	return bw.err
}

// promName sanitises a metric name to [a-zA-Z_:][a-zA-Z0-9_:]* and
// applies the prefix.
func promName(prefix, name string) string {
	var b strings.Builder
	full := prefix + name
	for i, r := range full {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// errWriter latches the first write error so the exposition loop stays
// linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...interface{}) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
