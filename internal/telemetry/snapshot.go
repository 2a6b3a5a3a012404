package telemetry

import (
	"fmt"
	"io"
)

// MetricValue is one metric's state at snapshot time, fully rendered:
// callers (control protocol, benchmark reports) consume it without
// touching live cells.
type MetricValue struct {
	Family string  `json:"family"`
	Labels []Label `json:"labels,omitempty"`
	Full   string  `json:"full"`
	Help   string  `json:"help,omitempty"`
	Kind   string  `json:"kind"`

	// Counter holds the counter total when Kind == "counter".
	Counter uint64 `json:"counter,omitempty"`
	// Gauge holds the gauge value when Kind == "gauge".
	Gauge int64 `json:"gauge,omitempty"`
	// Hist holds the merged histogram when Kind == "histogram".
	Hist *HistValue `json:"hist,omitempty"`
}

// Snapshot reads every registered metric. Deterministic order (family,
// then full name). Nil-safe: a nil registry snapshots to nil.
func (t *Telemetry) Snapshot() []MetricValue {
	if t == nil {
		return nil
	}
	ms := t.sortedMetrics()
	out := make([]MetricValue, 0, len(ms))
	for _, m := range ms {
		mv := MetricValue{
			Family: m.family, Labels: m.labels, Full: m.full,
			Help: m.help, Kind: m.kind.String(),
		}
		switch m.kind {
		case KindCounter:
			mv.Counter = m.read()
		case KindGauge:
			mv.Gauge = m.gread()
		case KindHistogram:
			h := m.h.Value()
			mv.Hist = &h
		}
		out = append(out, mv)
	}
	return out
}

// Find returns the snapshot value for an exact full name
// (family{k="v",...}), or false when it is not registered.
func (t *Telemetry) Find(full string) (MetricValue, bool) {
	for _, mv := range t.Snapshot() {
		if mv.Full == full {
			return mv, true
		}
	}
	return MetricValue{}, false
}

// CounterValue is a convenience for tests and reports: the total of the
// counter with the given full name, 0 when absent.
func (t *Telemetry) CounterValue(full string) uint64 {
	mv, ok := t.Find(full)
	if !ok {
		return 0
	}
	return mv.Counter
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (v0.0.4): HELP/TYPE per family, cumulative
// le-bucketed histograms with _sum and _count. Control path only.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	ms := t.sortedMetrics()
	lastFamily := ""
	for _, m := range ms {
		if m.family != lastFamily {
			lastFamily = m.family
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.family, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.family, m.kind.String()); err != nil {
				return err
			}
		}
		switch m.kind {
		case KindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.full, m.read()); err != nil {
				return err
			}
		case KindGauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.full, m.gread()); err != nil {
				return err
			}
		case KindHistogram:
			if err := writePromHistogram(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram renders one histogram as cumulative le buckets.
func writePromHistogram(w io.Writer, m *metric) error {
	v := m.h.Value()
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += v.Buckets[i]
		le := "+Inf"
		if i < NumBuckets-1 {
			le = fmt.Sprintf("%d", BucketBound(i))
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", renderFull(m.family+"_bucket", append(append([]Label(nil), m.labels...), Label{"le", le})), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", renderFull(m.family+"_sum", m.labels), v.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", renderFull(m.family+"_count", m.labels), v.Count)
	return err
}
