package telemetry

import (
	"strconv"
	"sync"
	"testing"
)

func TestJournalNilNoOps(t *testing.T) {
	var j *Journal
	j.Record(EvConfig, "noop") // must not panic
	if j.Snapshot(0, 0) != nil || j.NextSeq() != 0 {
		t.Fatal("nil journal leaked state")
	}
}

func TestJournalRecordAndSnapshot(t *testing.T) {
	j := NewJournal(16)
	j.Record(EvPluginLoad, "drr")
	j.Record(EvConfig, "register drr drr0")
	j.Record(EvQuarantine, "drr/drr0")
	evs := j.Snapshot(0, 0)
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	for i, want := range []string{EvPluginLoad, EvConfig, EvQuarantine} {
		if evs[i].Kind != want || evs[i].Seq != uint64(i) {
			t.Fatalf("event %d: %+v, want kind %s seq %d", i, evs[i], want, i)
		}
	}
	if evs[1].Detail != "register drr drr0" {
		t.Fatalf("detail %q", evs[1].Detail)
	}
}

func TestJournalSinceCursor(t *testing.T) {
	j := NewJournal(64)
	for i := 0; i < 10; i++ {
		j.Record(EvConfig, strconv.Itoa(i))
	}
	cursor := j.NextSeq()
	if got := j.Snapshot(cursor, 0); len(got) != 0 {
		t.Fatalf("cursor at head returned %d events", len(got))
	}
	j.Record(EvLinkPeer, "wan0 -> 127.0.0.1:9001")
	got := j.Snapshot(cursor, 0)
	if len(got) != 1 || got[0].Kind != EvLinkPeer || got[0].Seq != cursor {
		t.Fatalf("follow poll got %+v", got)
	}
}

func TestJournalWrapKeepsNewest(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 20; i++ {
		j.Record(EvConfig, strconv.Itoa(i))
	}
	evs := j.Snapshot(0, 0)
	if len(evs) != 8 {
		t.Fatalf("%d events, want ring depth 8", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("events not contiguous ascending: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].Seq != 19 {
		t.Fatalf("newest seq %d, want 19", evs[len(evs)-1].Seq)
	}
	// max trims from the old end, keeping the newest.
	if got := j.Snapshot(0, 3); len(got) != 3 || got[2].Seq != 19 {
		t.Fatalf("max=3 snapshot %+v", got)
	}
}

func TestJournalRecordZeroAlloc(t *testing.T) {
	j := NewJournal(64)
	detail := "wan0"
	n := testing.AllocsPerRun(1000, func() {
		j.Record(EvTxRingBurst, detail)
	})
	if n != 0 {
		t.Fatalf("Record allocated %v per op", n)
	}
}

func TestJournalConcurrentRecordSnapshot(t *testing.T) {
	j := NewJournal(32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					j.Record(EvConfig, "x")
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		evs := j.Snapshot(0, 0)
		for k := 1; k < len(evs); k++ {
			if evs[k].Seq <= evs[k-1].Seq {
				t.Errorf("snapshot not strictly ascending")
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestJournalSkippedCountsHeldSlots(t *testing.T) {
	j := NewJournal(2)
	e := j.claim() // held, like a reader mid-copy
	j.Record(EvConfig, "a")
	j.Record(EvConfig, "b") // lands on the held slot: skipped
	if got := j.Skipped(); got != 1 {
		t.Fatalf("Skipped = %d, want 1", got)
	}
	e.commit()
	var nilJ *Journal
	if nilJ.Skipped() != 0 {
		t.Fatal("nil journal skipped non-zero")
	}
}
