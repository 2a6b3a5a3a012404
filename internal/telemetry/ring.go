package telemetry

import "sync/atomic"

// slot is the header every ring entry embeds: a per-entry atomic
// try-lock, whether the entry holds a finished record, and the sequence
// number it was claimed for. All cross-goroutine access to an entry's
// plain fields is bracketed by busy: a writer that cannot claim a slot
// skips its record instead of blocking, and a reader that cannot claim
// one skips the slot instead of tearing it. The rings are race-detector
// clean without a mutex on the data path.
type slot struct {
	busy      atomic.Uint32
	committed bool
	Seq       uint64
}

func (s *slot) header() *slot { return s }

// commit publishes the held entry to readers and releases its slot.
//
//eisr:fastpath
func (s *slot) commit() {
	s.committed = true
	s.busy.Store(0)
}

// slotted is the constraint on ring entries: a pointer to a struct that
// embeds slot.
type slotted[T any] interface {
	*T
	header() *slot
}

// ring is the fixed ring of slots behind TraceRing, SpanRing and
// Journal: writers claim slots round robin by sequence number, readers
// scan committed entries newest first.
type ring[T any, P slotted[T]] struct {
	entries []T
	mask    uint64
	seq     atomic.Uint64
	skipped atomic.Uint64 // records lost because their slot was busy
}

// allocate makes size slots, rounded up to a power of two (def when
// size <= 0).
func (r *ring[T, P]) allocate(size, def int) {
	if size <= 0 {
		size = def
	}
	n := 1
	for n < size {
		n <<= 1
	}
	r.entries = make([]T, n)
	r.mask = uint64(n - 1)
}

// claim takes the next slot for writing and returns its entry held and
// stamped with its sequence number, for the caller to fill and commit.
// It returns nil, counted in skipped, when the slot is still held by a
// reader or a lapped writer.
//
//eisr:fastpath
func (r *ring[T, P]) claim() P {
	seq := r.seq.Add(1) - 1
	e := P(&r.entries[seq&r.mask])
	h := e.header()
	if !h.busy.CompareAndSwap(0, 1) {
		r.skipped.Add(1)
		return nil
	}
	h.Seq, h.committed = seq, false
	return e
}

// scan visits the committed entries whose sequence is at least since,
// newest first and each with its slot held, until visit returns false.
// Busy slots are skipped: the reader never blocks a writer.
func (r *ring[T, P]) scan(since uint64, visit func(P) bool) {
	next := r.seq.Load()
	stop := since
	if n := uint64(len(r.entries)); next > n && next-n > stop {
		stop = next - n
	}
	for seq := next; seq > stop; {
		seq--
		e := P(&r.entries[seq&r.mask])
		h := e.header()
		if !h.busy.CompareAndSwap(0, 1) {
			continue
		}
		more := true
		if h.committed && h.Seq == seq {
			more = visit(e)
		}
		h.busy.Store(0)
		if !more {
			return
		}
	}
}
