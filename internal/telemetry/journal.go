package telemetry

import (
	"sort"
	"time"
)

// DefaultJournalSize is the event journal depth when callers pass 0.
const DefaultJournalSize = 1024

// Journal event kinds. Record callers on hot paths must pass these
// constants (and preexisting detail strings) so recording stays
// allocation-free.
const (
	EvPluginLoad        = "plugin-load"
	EvPluginUnload      = "plugin-unload"
	EvQuarantine        = "quarantine"
	EvQuarantineDrained = "quarantine-drained"
	EvLinkPeer          = "link-peer"
	EvRxRingBurst       = "rx-ring-burst"
	EvTxRingBurst       = "tx-ring-burst"
	EvRxErrBurst        = "rx-err-burst"
	EvRcvbufClamped     = "rcvbuf-clamped"
	EvConfig            = "config"
	EvPathSample        = "path-sample"
	EvRouterStart       = "router-start"
	EvRouterStop        = "router-stop"
	EvFeedConnect       = "feed-connect"
	EvFeedLoss          = "feed-loss"
	EvFeedResync        = "feed-resync"
)

// journalEntry is one slot of the event ring.
type journalEntry struct {
	slot

	unixMilli int64
	kind      string
	detail    string
}

// Journal is the fixed-size structured event journal: control-plane and
// exception events (quarantines, plugin lifecycle, link peer changes,
// ring-full burst onsets, config mutations) with monotonic sequence
// numbers and coarse millisecond timestamps. Recording is lock-free and
// allocation-free so exception arms of the data path (a TX ring-full
// burst) can journal without violating fastpath discipline. A nil
// *Journal no-ops every method.
type Journal struct {
	ring[journalEntry, *journalEntry]
}

// NewJournal builds a journal with size slots (rounded up to a power of
// two; 0 = DefaultJournalSize).
func NewJournal(size int) *Journal {
	j := &Journal{}
	j.allocate(size, DefaultJournalSize)
	return j
}

// EnableJournal installs the event journal (size 0 = default).
// Assembly time, like EnableTrace.
func (t *Telemetry) EnableJournal(size int) *Journal {
	if t == nil {
		return nil
	}
	j := NewJournal(size)
	t.mu.Lock()
	t.journal.Store(j)
	t.mu.Unlock()
	return j
}

// Journal returns the live event journal, or nil when journaling is
// off. One atomic load.
//
//eisr:fastpath
func (t *Telemetry) Journal() *Journal {
	if t == nil {
		return nil
	}
	return t.journal.Load()
}

// Record appends one event. kind and detail must be preexisting strings
// (constants, names fixed at assembly) — the copy is a header copy, so
// recording allocates nothing. A slot still held by a reader is skipped
// rather than waited on.
//
//eisr:fastpath
func (j *Journal) Record(kind, detail string) {
	if j == nil {
		return
	}
	e := j.claim()
	if e == nil {
		return
	}
	e.unixMilli = time.Now().UnixMilli()
	e.kind = kind
	e.detail = detail
	e.commit()
}

// Skipped reports how many events lost their slot to a concurrent
// reader or a lapped writer.
func (j *Journal) Skipped() uint64 {
	if j == nil {
		return 0
	}
	return j.skipped.Load()
}

// NextSeq returns the sequence number the next event will get — the
// follow-mode cursor.
func (j *Journal) NextSeq() uint64 {
	if j == nil {
		return 0
	}
	return j.seq.Load()
}

// EventSample is one journal event rendered for the control protocol.
type EventSample struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
}

// Snapshot copies up to max committed events with sequence >= since,
// ordered by ascending sequence (deterministic; `pmgr events -f` polls
// with since as its cursor). Control path; allocates.
func (j *Journal) Snapshot(since uint64, max int) []EventSample {
	if j == nil {
		return nil
	}
	if max <= 0 || max > len(j.entries) {
		max = len(j.entries)
	}
	out := make([]EventSample, 0, max)
	j.scan(since, func(e *journalEntry) bool {
		out = append(out, EventSample{
			Seq: e.Seq, Time: time.UnixMilli(e.unixMilli),
			Kind: e.kind, Detail: e.detail,
		})
		return true
	})
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	if len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}
