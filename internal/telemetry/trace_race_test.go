package telemetry

import (
	"sync"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
)

// Satellite: slot-tear hardening. Concurrent Acquire/Commit writers
// race a Snapshot reader; every field of a committed entry is derived
// from its sequence number, so a snapshot that ever observes a
// half-written entry (fields from two different generations of the
// slot) is detected directly — this pins the busy-flag contract: all
// plain-field access is bracketed by the per-entry atomic try-lock, and
// readers skip busy slots instead of tearing them. Run under -race
// (make race covers internal/telemetry).
func TestTraceRingSnapshotNoTear(t *testing.T) {
	r := NewTraceRing(64, 1)
	const gate = "tear"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := r.Acquire()
				if e == nil {
					continue
				}
				// Derive every recorded field from the slot's sequence
				// number so a torn read is self-evident.
				seq := e.Seq
				e.RecordKey(pkt.Key{
					Proto:   pkt.ProtoUDP,
					SrcPort: uint16(seq),
					DstPort: uint16(seq >> 16),
					InIf:    int32(seq & 0x7FFFFFFF),
				}, int64(seq))
				e.RecordClassify(seq%2 == 0, seq%2 == 1, seq, seq)
				for h := 0; h < MaxHops; h++ {
					e.RecordHop(gate, uint32(seq), "", int64(seq))
				}
				e.Commit(verdictFor(seq), pkt.DropNone, int32(seq&0x7FFFFFFF), int64(seq))
			}
		}()
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	snapshots := 0
	for time.Now().Before(deadline) {
		for _, s := range r.Snapshot(0) {
			snapshots++
			seq := s.Seq
			if s.Time.UnixNano() != int64(seq) {
				t.Fatalf("torn entry seq %d: start %d", seq, s.Time.UnixNano())
			}
			if s.TotalNanos != int64(seq) || s.OutIf != int32(seq&0x7FFFFFFF) {
				t.Fatalf("torn entry seq %d: total=%d outif=%d", seq, s.TotalNanos, s.OutIf)
			}
			if s.Accesses != seq || s.FnPtr != seq {
				t.Fatalf("torn entry seq %d: accesses=%d fnptr=%d", seq, s.Accesses, s.FnPtr)
			}
			if s.Verdict != verdictFor(seq) {
				t.Fatalf("torn entry seq %d: verdict %q", seq, s.Verdict)
			}
			if len(s.Hops) != MaxHops {
				t.Fatalf("torn entry seq %d: %d hops, want %d (committed entries are complete)", seq, len(s.Hops), MaxHops)
			}
			for _, h := range s.Hops {
				if h.Code != uint32(seq) || h.Nanos != int64(seq) || h.Gate != gate {
					t.Fatalf("torn hop in seq %d: %+v", seq, h)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if snapshots == 0 {
		t.Fatal("snapshot loop observed no committed entries; the race saw nothing")
	}
}

// verdictFor picks a constant verdict string from a sequence number
// (strings must be preexisting on the commit path).
func verdictFor(seq uint64) string {
	if seq%2 == 0 {
		return "forwarded"
	}
	return "dropped"
}
