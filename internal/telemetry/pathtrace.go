package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
)

// DefaultSpanSize is the span ring size used when callers pass 0.
const DefaultSpanSize = 1024

// PathTracer is the eisrpath engine of one router: it decides at the
// origin which packets carry an in-band trace context (deterministic
// 1-in-N on the flow-key hash, runtime-settable), identifies this
// router in hop records, and folds completed paths — local delivery or
// drop — into a span ring plus a per-hop-count latency histogram
// family. A nil *PathTracer is the disabled mode: every method is a
// nil-receiver no-op, so the data path needs no branches beyond the
// calls themselves.
type PathTracer struct {
	router uint32
	sample atomic.Uint64 // 0 = sampling off; N = 1-in-N by key hash
	seq    atomic.Uint64 // trace-id mint at the origin
	spans  *SpanRing

	sampled *Counter // contexts originated here
	folded  *Counter // spans terminated here
	// latency[n] observes end-to-end span nanoseconds for n-hop paths
	// (eisr_path_latency_ns{hops="n"}); index 0 is unused.
	latency [pkt.MaxPathHops + 1]*Histogram
}

// hopCountLabels are the precomputed {hops="n"} label values so Fold
// never formats.
var hopCountLabels = [pkt.MaxPathHops + 1]string{
	"0", "1", "2", "3", "4", "5", "6", "7", "8",
}

// EnablePathTrace installs a path tracer identifying this router by id,
// with a span ring of spanSlots entries (0 = DefaultSpanSize) sampling
// 1-in-sample packets at the origin (0 = sampling off until raised via
// SetSampleRate). Assembly time: replacing a live tracer abandons
// pointers the data path already holds.
func (t *Telemetry) EnablePathTrace(router uint32, spanSlots, sample int) *PathTracer {
	if t == nil {
		return nil
	}
	pt := &PathTracer{
		router: router,
		spans:  NewSpanRing(spanSlots),
		sampled: t.Counter("eisr_path_sampled_total",
			"packets given an in-band trace context at this router"),
		folded: t.Counter("eisr_path_spans_total",
			"path spans terminated (folded) at this router"),
	}
	for n := 1; n <= pkt.MaxPathHops; n++ {
		pt.latency[n] = t.Histogram("eisr_path_latency_ns",
			"end-to-end path latency by hop count, nanoseconds",
			Label{Key: "hops", Value: hopCountLabels[n]})
	}
	if sample > 0 {
		pt.sample.Store(uint64(sample))
	}
	t.mu.Lock()
	t.path.Store(pt)
	t.mu.Unlock()
	return pt
}

// PathTracer returns the live path tracer, or nil when path tracing is
// off. One atomic load; the data path calls this per packet.
//
//eisr:fastpath
func (t *Telemetry) PathTracer() *PathTracer {
	if t == nil {
		return nil
	}
	return t.path.Load()
}

// Router identifies this router in hop records.
//
//eisr:fastpath
func (pt *PathTracer) Router() uint32 {
	if pt == nil {
		return 0
	}
	return pt.router
}

// Enabled reports whether origin sampling is on: the untraced fast path
// pays exactly this nil check plus one atomic load per packet.
//
//eisr:fastpath
func (pt *PathTracer) Enabled() bool {
	return pt != nil && pt.sample.Load() != 0
}

// Origin decides whether a packet starting here is sampled, and mints
// its trace id. hash is the flow-key hash: sampling is deterministic
// per flow (1-in-N of the hash space), so a sampled flow's packets are
// all sampled and span latencies are comparable within a flow.
//
//eisr:fastpath
func (pt *PathTracer) Origin(hash uint32) (uint64, bool) {
	if pt == nil {
		return 0, false
	}
	n := pt.sample.Load()
	if n == 0 || uint64(hash)%n != 0 {
		return 0, false
	}
	id := uint64(pt.router)<<48 | (pt.seq.Add(1) & 0xFFFFFFFFFFFF)
	pt.sampled.Inc()
	return id, true
}

// Fold terminates a path: the context's hops are copied into the span
// ring and the end-to-end latency (the sum of per-hop residencies)
// observed in the hop-count histogram. now is the folding router's
// clock in unix nanoseconds. Allocation-free; a busy span slot skips
// the span, never blocks.
//
//eisr:fastpath
func (pt *PathTracer) Fold(c *pkt.PathContext, k pkt.Key, now int64) {
	if pt == nil || c.NHops == 0 {
		return
	}
	var total uint64
	for i := 0; i < int(c.NHops); i++ {
		total += uint64(c.Hops[i].TotalNs)
	}
	pt.latency[c.NHops].Observe(total)
	pt.folded.Inc()
	pt.spans.record(c, k, now, total)
}

// SampleRate reports the current 1-in-N origin sampling rate (0 = off).
func (pt *PathTracer) SampleRate() uint64 {
	if pt == nil {
		return 0
	}
	return pt.sample.Load()
}

// SetSampleRate changes origin sampling at runtime (0 disables;
// negative is treated as 0). Takes effect on the next packet.
func (pt *PathTracer) SetSampleRate(n int) {
	if pt == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	pt.sample.Store(uint64(n))
}

// PathTraceStatus is the "pmgr pathtrace" payload.
type PathTraceStatus struct {
	Router    uint32 `json:"router"`
	Sample    uint64 `json:"sample"` // 0 = origin sampling off
	Sampled   uint64 `json:"sampled_total"`
	Spans     uint64 `json:"spans_total"`
	SpanSlots int    `json:"span_slots"`
	SlotsBusy uint64 `json:"span_slots_busy"`
}

// Status snapshots the tracer for operator tooling.
func (pt *PathTracer) Status() PathTraceStatus {
	if pt == nil {
		return PathTraceStatus{}
	}
	return PathTraceStatus{
		Router:    pt.router,
		Sample:    pt.sample.Load(),
		Sampled:   pt.sampled.Value(),
		Spans:     pt.folded.Value(),
		SpanSlots: len(pt.spans.entries),
		SlotsBusy: pt.spans.skipped.Load(),
	}
}

// SnapshotSpans copies up to max folded spans, oldest first (ascending
// sequence — deterministic for CI assertions). Control path only.
func (pt *PathTracer) SnapshotSpans(max int) []SpanSample {
	if pt == nil {
		return nil
	}
	return pt.spans.Snapshot(max)
}

// SpanEntry is one folded path in the ring, claimed and released
// through its slot header like a TraceEntry.
type SpanEntry struct {
	slot

	Unix    int64 // fold time, unix nanoseconds
	ID      uint64
	Key     pkt.Key
	NHops   uint8
	Hops    [pkt.MaxPathHops]pkt.PathHop
	TotalNs uint64
}

// SpanRing holds terminated path spans, claimed round-robin like the
// packet trace ring: writers skip a busy slot rather than block.
type SpanRing struct {
	ring[SpanEntry, *SpanEntry]
}

// NewSpanRing builds a ring with size slots (rounded up to a power of
// two; 0 = DefaultSpanSize).
func NewSpanRing(size int) *SpanRing {
	r := &SpanRing{}
	r.allocate(size, DefaultSpanSize)
	return r
}

// record folds one context into the ring.
//
//eisr:fastpath
func (r *SpanRing) record(c *pkt.PathContext, k pkt.Key, now int64, total uint64) {
	if r == nil {
		return
	}
	e := r.claim()
	if e == nil {
		return
	}
	e.Unix = now
	e.ID = c.ID
	e.Key = k
	e.NHops = c.NHops
	e.Hops = c.Hops
	e.TotalNs = total
	e.commit()
}

// SpanHop is one hop of an exported span, with the verdict rendered.
type SpanHop struct {
	Router  uint32 `json:"router"`
	InIf    int16  `json:"in_if"`
	OutIf   int16  `json:"out_if"`
	Worker  uint16 `json:"worker"`
	Gates   uint8  `json:"gates"`
	Verdict string `json:"verdict"`
	QueueNs uint32 `json:"queue_ns"`
	TotalNs uint32 `json:"total_ns"`
}

// SpanSample is one folded span rendered for the control protocol.
type SpanSample struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	TraceID string    `json:"trace_id"`
	Flow    string    `json:"flow"`
	Hops    []SpanHop `json:"hops"`
	TotalNs uint64    `json:"total_ns"`
}

// Snapshot copies up to max committed spans, ordered by ascending
// sequence. Busy slots are skipped — the reader never blocks a folding
// worker. Control path; allocates.
func (r *SpanRing) Snapshot(max int) []SpanSample {
	if r == nil {
		return nil
	}
	if max <= 0 || max > len(r.entries) {
		max = len(r.entries)
	}
	out := make([]SpanSample, 0, max)
	r.scan(0, func(e *SpanEntry) bool {
		s := SpanSample{
			Seq: e.Seq, Time: time.Unix(0, e.Unix),
			TraceID: fmt.Sprintf("%016x", e.ID),
			Flow:    e.Key.String(),
			TotalNs: e.TotalNs,
		}
		for h := 0; h < int(e.NHops); h++ {
			hop := e.Hops[h]
			s.Hops = append(s.Hops, SpanHop{
				Router: hop.Router, InIf: hop.InIf, OutIf: hop.OutIf,
				Worker: hop.Worker, Gates: hop.Gates,
				Verdict: pkt.PathVerdictString(hop.Verdict),
				QueueNs: hop.QueueNs, TotalNs: hop.TotalNs,
			})
		}
		out = append(out, s)
		return len(out) < max
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
