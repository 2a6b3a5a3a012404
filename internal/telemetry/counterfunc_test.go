package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterFuncReadsOwnerCell(t *testing.T) {
	tel := New()
	var cell atomic.Uint64
	cell.Add(5) // counted before registration
	tel.CounterFunc("eisr_view_total", "a view", cell.Load, Label{"k", "v"})
	cell.Add(2)
	if got := tel.CounterValue(`eisr_view_total{k="v"}`); got != 7 {
		t.Fatalf("view = %d, want 7", got)
	}
	var nilTel *Telemetry
	nilTel.CounterFunc("eisr_view_total", "", cell.Load) // must not panic
}

func TestGaugeFuncReadsOwnerLevel(t *testing.T) {
	tel := New()
	var level atomic.Int64
	level.Store(4)
	tel.GaugeFunc("eisr_level", "a level view", level.Load, Label{"k", "v"})
	level.Add(-1)
	mv, ok := tel.Find(`eisr_level{k="v"}`)
	if !ok || mv.Kind != "gauge" || mv.Gauge != 3 {
		t.Fatalf("view = %+v (found %v), want gauge 3", mv, ok)
	}
	// The view keeps its name: a later plain registration gets a nil
	// (no-op) cell and the first reader stays.
	if g := tel.Gauge("eisr_level", "", Label{"k", "v"}); g != nil {
		t.Fatal("plain registration over a gauge view returned a live cell")
	}
	var nilTel *Telemetry
	nilTel.GaugeFunc("eisr_level", "", level.Load) // must not panic
}

func TestCounterFuncFirstWins(t *testing.T) {
	tel := New()
	first := func() uint64 { return 1 }
	second := func() uint64 { return 2 }
	tel.CounterFunc("eisr_dup_total", "first", first, Label{"k", "v"})
	tel.CounterFunc("eisr_dup_total", "second", second, Label{"k", "v"})
	if got := tel.CounterValue(`eisr_dup_total{k="v"}`); got != 1 {
		t.Fatalf("duplicate full name read %d, want the first reader's 1", got)
	}
	// A registry-owned counter keeps its name against a later view, and
	// a view keeps its name against a later plain registration, whose
	// caller gets a nil (no-op) cell.
	c := tel.Counter("eisr_cell_total", "")
	c.Add(3)
	tel.CounterFunc("eisr_cell_total", "", second)
	if got := tel.CounterValue("eisr_cell_total"); got != 3 {
		t.Fatalf("registry cell read %d after a duplicate view, want 3", got)
	}
	if c := tel.Counter("eisr_dup_total", "", Label{"k", "v"}); c != nil {
		t.Fatal("plain registration over a view returned a live cell")
	}
	tel.CounterFunc("eisr_kind_total", "", first)
	if g := tel.Gauge("eisr_kind_total", ""); g != nil {
		t.Fatal("kind clash with a view did not return nil")
	}
	if n := len(tel.Snapshot()); n != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", n)
	}
}

// Views registered and read while their cells move, racing Snapshot:
// run under -race.
func TestCounterFuncConcurrentSnapshot(t *testing.T) {
	tel := New()
	const writers = 4
	cells := make([]atomic.Uint64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := Label{"w", strconv.Itoa(w)}
			for i := 0; i < 2000; i++ {
				// Re-registration of the same full name is a no-op.
				tel.CounterFunc("eisr_view_conc_total", "", cells[w].Load, lbl)
				tel.CounterFunc("eisr_view_conc_total", "", func() uint64 { return 0 }, lbl)
				cells[w].Add(1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	total := func() uint64 {
		var sum uint64
		for _, mv := range tel.Snapshot() {
			sum += mv.Counter
		}
		return sum
	}
	var last uint64
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		got := total()
		if got < last {
			t.Fatalf("views went backwards: %d -> %d", last, got)
		}
		last = got
	}
	if got := total(); got != writers*2000 {
		t.Fatalf("final total = %d, want %d", got, writers*2000)
	}
}
