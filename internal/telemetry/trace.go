package telemetry

import (
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
)

// MaxHops bounds the gate sequence recorded per packet. The paper's
// router runs four gates; eight leaves room for custom gate sets.
const MaxHops = 8

// Hop is one gate visit: which gate, which plugin code and instance
// served it, and how long the dispatch took. Gate and Instance are
// string headers copied from names that already exist (gate names are
// precomputed at router assembly; instance names are fixed at
// create-instance), so recording a hop allocates nothing.
type Hop struct {
	Gate     string `json:"gate"`
	Code     uint32 `json:"code"`
	Instance string `json:"instance,omitempty"`
	Nanos    int64  `json:"ns"`
}

// TraceEntry is one packet's path record. Entries live in the ring's
// backing array and are claimed and released through their slot
// header's atomic try-lock: a writer that cannot claim a slot skips
// tracing that packet instead of blocking, and a reader that cannot
// claim skips the slot instead of tearing it — the data path never
// waits on telemetry.
type TraceEntry struct {
	slot

	Start       int64 // unix nanoseconds at receive
	Key         pkt.Key
	Hops        [MaxHops]Hop
	NHops       int
	CacheHit    bool   // flow-table hit (FIX resolved from cache)
	FirstPacket bool   // took the first-packet classification slow path
	Accesses    uint64 // classifier memory accesses (cycles.Counter.Mem)
	FnPtr       uint64 // function-pointer loads (cycles.Counter.FnPtr)
	TotalNanos  int64
	Verdict     string
	DropReason  string
	OutIf       int32
}

// RecordKey stamps the parsed six-tuple and receive time.
//
//eisr:fastpath
func (e *TraceEntry) RecordKey(k pkt.Key, startUnixNanos int64) {
	if e == nil {
		return
	}
	e.Key = k
	e.Start = startUnixNanos
}

// RecordHop appends one gate visit; beyond MaxHops visits are dropped.
//
//eisr:fastpath
func (e *TraceEntry) RecordHop(gate string, code uint32, instance string, nanos int64) {
	if e == nil || e.NHops >= MaxHops {
		return
	}
	h := &e.Hops[e.NHops]
	h.Gate, h.Code, h.Instance, h.Nanos = gate, code, instance, nanos
	e.NHops++
}

// RecordClassify stamps the classification outcome and the classifier's
// memory-access attribution for this packet.
//
//eisr:fastpath
func (e *TraceEntry) RecordClassify(cacheHit, firstPacket bool, accesses, fnptr uint64) {
	if e == nil {
		return
	}
	e.CacheHit = cacheHit
	e.FirstPacket = firstPacket
	e.Accesses = accesses
	e.FnPtr = fnptr
}

// Commit finalizes the entry and releases its slot to readers. verdict
// and dropReason must be preexisting strings (constants, preallocated
// error text) — the copy is a header copy.
//
//eisr:fastpath
func (e *TraceEntry) Commit(verdict, dropReason string, outIf int32, totalNanos int64) {
	if e == nil {
		return
	}
	e.Verdict = verdict
	e.DropReason = dropReason
	e.OutIf = outIf
	e.TotalNanos = totalNanos
	e.commit()
}

// TraceRing is the fixed per-packet trace buffer: writers claim slots
// round-robin by sequence number; readers snapshot committed entries
// newest first.
type TraceRing struct {
	ring[TraceEntry, *TraceEntry]
	pkts   atomic.Uint64
	sample uint64
}

// DefaultTraceSize is the ring size used when callers pass 0.
const DefaultTraceSize = 4096

// NewTraceRing builds a ring with size slots (rounded up to a power of
// two; 0 = DefaultTraceSize), tracing every sample-th packet (<=1 =
// every packet).
func NewTraceRing(size, sample int) *TraceRing {
	if sample < 1 {
		sample = 1
	}
	r := &TraceRing{sample: uint64(sample)}
	r.allocate(size, DefaultTraceSize)
	return r
}

// Acquire claims the next slot for writing, or returns nil when this
// packet is not sampled or the slot is still held (reader or a lapped
// writer). The returned entry is reset; the caller records into it and
// must Commit it.
//
//eisr:fastpath
func (r *TraceRing) Acquire() *TraceEntry {
	if r == nil {
		return nil
	}
	if r.sample > 1 && r.pkts.Add(1)%r.sample != 0 {
		return nil
	}
	e := r.claim()
	if e == nil {
		return nil
	}
	e.Start = 0
	e.Key = pkt.Key{}
	e.NHops = 0
	e.CacheHit, e.FirstPacket = false, false
	e.Accesses, e.FnPtr = 0, 0
	e.TotalNanos = 0
	e.Verdict, e.DropReason = "", ""
	e.OutIf = -1
	return e
}

// Skipped reports how many sampled packets lost their trace slot to a
// concurrent holder.
func (r *TraceRing) Skipped() uint64 {
	if r == nil {
		return 0
	}
	return r.skipped.Load()
}

// TraceSample is one committed entry copied out of the ring, rendered
// for the control protocol.
type TraceSample struct {
	Seq         uint64    `json:"seq"`
	Time        time.Time `json:"time"`
	Flow        string    `json:"flow"`
	Hops        []Hop     `json:"hops"`
	CacheHit    bool      `json:"cache_hit"`
	FirstPacket bool      `json:"first_packet"`
	Accesses    uint64    `json:"accesses"`
	FnPtr       uint64    `json:"fnptr_loads"`
	TotalNanos  int64     `json:"total_ns"`
	Verdict     string    `json:"verdict"`
	DropReason  string    `json:"drop_reason,omitempty"`
	OutIf       int32     `json:"out_if"`
}

// Snapshot copies up to max committed entries, newest first. Slots
// currently held by writers are skipped — the reader never blocks the
// data path. Snapshot allocates; it is a control-path call.
func (r *TraceRing) Snapshot(max int) []TraceSample {
	if r == nil {
		return nil
	}
	if max <= 0 || max > len(r.entries) {
		max = len(r.entries)
	}
	out := make([]TraceSample, 0, max)
	r.scan(0, func(e *TraceEntry) bool {
		s := TraceSample{
			Seq: e.Seq, Time: time.Unix(0, e.Start),
			Flow:     e.Key.String(),
			CacheHit: e.CacheHit, FirstPacket: e.FirstPacket,
			Accesses: e.Accesses, FnPtr: e.FnPtr,
			TotalNanos: e.TotalNanos, Verdict: e.Verdict,
			DropReason: e.DropReason, OutIf: e.OutIf,
		}
		s.Hops = append(s.Hops, e.Hops[:e.NHops]...)
		out = append(out, s)
		return len(out) < max
	})
	return out
}
