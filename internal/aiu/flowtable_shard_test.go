package aiu

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
)

func TestFlowTableShardCounts(t *testing.T) {
	cases := []struct {
		req, want int
	}{
		{0, DefaultFlowShards},
		{1, 1},
		{2, 2},
		{3, 4},  // rounded up to a power of two
		{9, 16}, // rounded up
		{300, maxFlowShards},
	}
	for _, tc := range cases {
		ft := NewFlowTableSharded(16, 1024, 1, tc.req)
		if got := ft.Shards(); got != tc.want {
			t.Errorf("shards(%d) = %d want %d", tc.req, got, tc.want)
		}
	}
}

// Sharded tables must keep the aggregate accounting of the single-lock
// table: every insert is visible, Len and Stats sum across shards.
func TestFlowTableShardedAccounting(t *testing.T) {
	ft := NewFlowTableSharded(64, 4096, 2, 8)
	now := pkt.Nanotime()
	const n = 500
	for i := 0; i < n; i++ {
		if ft.Insert(key(i), now, nil) == nil {
			t.Fatalf("insert %d returned nil", i)
		}
	}
	if ft.Len() != n {
		t.Fatalf("Len = %d want %d", ft.Len(), n)
	}
	for i := 0; i < n; i++ {
		if ft.Lookup(key(i), now, nil) == nil {
			t.Fatalf("flow %d not found after insert", i)
		}
	}
	s := ft.Stats()
	if s.Live != n || s.Inserts != uint64(n) || s.Hits != uint64(n) {
		t.Errorf("stats = %+v", s)
	}
}

// The steering function and the shard selector must agree: two keys that
// steer to different workers (with workers == shards) never share a
// shard, so a worker-per-shard engine has zero cross-worker locking on
// the cache-hit path.
func TestSteerWorkerMatchesShard(t *testing.T) {
	const n = DefaultFlowShards
	ft := NewFlowTableSharded(64, 4096, 1, n)
	if ft.Shards() != n {
		t.Fatalf("shards = %d want %d", ft.Shards(), n)
	}
	for i := 0; i < 2000; i++ {
		h := pkt.FlowHash(key(i))
		w := pkt.SteerWorker(h, n)
		if w < 0 || w >= n {
			t.Fatalf("pkt.SteerWorker(%#x) = %d out of range", h, w)
		}
		if ft.shards[w] != ft.shardFor(h) {
			t.Fatalf("key %d: worker %d does not own its shard", i, w)
		}
	}
	if pkt.SteerWorker(pkt.FlowHash(key(1)), 1) != 0 || pkt.SteerWorker(pkt.FlowHash(key(2)), 0) != 0 {
		t.Error("degenerate worker counts must steer to 0")
	}
}

// SteerWorker must spread realistic five-tuples across workers; a dead
// worker means a serialized engine.
func TestSteerWorkerBalance(t *testing.T) {
	const workers = 4
	counts := make([]int, workers)
	for i := 0; i < 4096; i++ {
		counts[pkt.SteerWorker(pkt.FlowHash(key(i)), workers)]++
	}
	for w, c := range counts {
		if c == 0 {
			t.Errorf("worker %d got no flows", w)
		}
		if c > 4096/workers*3 {
			t.Errorf("worker %d overloaded: %d of 4096", w, c)
		}
	}
}

// Recycling a record for a new flow must bump its generation so a stale
// FIX captured before the recycle can never dispatch through the new
// flow's bindings.
func TestFlowRecordGenerationBumpOnRecycle(t *testing.T) {
	ft := NewFlowTableSharded(4, 8, 1, 1)
	now := pkt.Nanotime()
	inst := &testInstance{name: "old"}
	rec, gen := ft.InsertGen(key(0), now, []*FilterRecord{{Instance: inst}})
	if rec == nil {
		t.Fatal("insert failed")
	}
	if b, ok := rec.FilterIfCurrent(0, gen); !ok || b.Instance != inst {
		t.Fatal("fresh generation must pass the bind check")
	}
	// Fill the table so the next insert recycles the oldest (key 0).
	for i := 1; i < 8; i++ {
		ft.Insert(key(i), now+int64(i), nil)
	}
	ft.Insert(key(100), now+int64(time.Hour), []*FilterRecord{{Instance: &testInstance{name: "new"}}})
	if ft.Lookup(key(0), now, nil) != nil {
		t.Fatal("oldest flow should have been recycled")
	}
	if rec.Generation() == gen {
		t.Error("recycle did not bump the record generation")
	}
	if b, ok := rec.FilterIfCurrent(0, gen); ok {
		t.Errorf("stale generation returned bind %+v; must fail", b)
	}
}

// Remove and FlushWhere are evictions too: they must invalidate
// generations exactly like recycling.
func TestFlowRecordGenerationBumpOnRemoveAndFlush(t *testing.T) {
	ft := NewFlowTableSharded(8, 32, 1, 2)
	now := pkt.Nanotime()
	r1, g1 := ft.InsertGen(key(1), now, []*FilterRecord{{Instance: &testInstance{name: "a"}}})
	r2, g2 := ft.InsertGen(key(2), now, []*FilterRecord{{Instance: &testInstance{name: "b"}}})
	ft.Remove(key(1))
	if current(r1, 0, g1) {
		t.Error("Remove must invalidate the generation")
	}
	ft.FlushWhere(func(r *FlowRecord) bool { return r.Key == key(2) })
	if current(r2, 0, g2) {
		t.Error("FlushWhere must invalidate the generation")
	}
}

// flowState is per-flow soft state tagged with the flow it belongs to.
type flowState struct{ flow int }

// Lanes holding a FIX to a record race that record's recycling for
// other flows (run with -race). A recycled record publishes the new
// flow's binds straight over the old flow's, with no cleared set in
// between, so the generation bump before that publish is all that keeps
// a lane from dispatching into the new flow: neither the gate macro
// (Lane.FIX) nor FilterIfCurrent may ever hand a lane that captured the
// old generation the new flow's instance or Private state.
func TestFlowTableRecycleRaceKeepsGenerationGuard(t *testing.T) {
	const (
		capacity = 8
		flows    = 64
		lanes    = 4
		inserts  = 20000
	)
	ft := NewFlowTableSharded(capacity, capacity, 1, 1)
	insts := make([]*testInstance, flows)
	for f := range insts {
		insts[f] = &testInstance{name: fmt.Sprint("flow", f)}
	}
	now := pkt.Nanotime()
	var stop atomic.Bool
	var served, stale atomic.Uint64
	var wg, ready sync.WaitGroup
	errc := make(chan error, lanes)
	for g := 0; g < lanes; g++ {
		wg.Add(1)
		ready.Add(1)
		go func(g int) {
			defer wg.Done()
			ready.Done()
			p := &pkt.Packet{}
			for i := g; !stop.Load(); i++ {
				f := i % flows
				rec, gen := ft.LookupGen(key(f), now, nil)
				if rec == nil {
					continue
				}
				// Hold the FIX while the writer recycles records.
				for j := 0; j < 16; j++ {
					p.FIX, p.FIXGen = rec, gen
					l := Lane{P: p}
					if l.FIX(0) {
						served.Add(1)
						if l.Inst != insts[f] {
							errc <- fmt.Errorf("Lane.FIX for flow %d returned %v", f, l.Inst)
							return
						}
					} else {
						stale.Add(1)
					}
					if b, ok := rec.FilterIfCurrent(0, gen); ok {
						st, _ := b.Private.(*flowState)
						if b.Instance != insts[f] || st == nil || st.flow != f {
							errc <- fmt.Errorf("FilterIfCurrent for flow %d returned %v / %+v", f, b.Instance, st)
							return
						}
					}
				}
			}
		}(g)
	}
	// Recycle until the lanes have both been served and gone stale, so
	// the two really overlapped (bounded, in case they never do).
	ready.Wait()
	deadline := time.Now().Add(10 * time.Second)
	n := 0
	for i := 0; n < inserts || (stale.Load() == 0 || served.Load() == 0) && time.Now().Before(deadline); i++ {
		f := i % flows
		if ft.Lookup(key(f), now, nil) == nil {
			ft.InsertGen(key(f), now, []*FilterRecord{{Instance: insts[f], Private: &flowState{flow: f}}})
			n++
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if served.Load() == 0 || stale.Load() == 0 {
		t.Errorf("lanes served %d and went stale %d times; the race needs both", served.Load(), stale.Load())
	}
	st := ft.Stats()
	if st.Recycled != st.Inserts-capacity || st.Removed != 0 {
		t.Errorf("inserts=%d recycled=%d removed=%d: every insert past the cap recycles, and nothing was removed", st.Inserts, st.Recycled, st.Removed)
	}
}

// Recycling and removal are counted apart: a recycle is not a removal,
// and every freed record (Remove, PurgeIdle, FlushWhere) is counted
// once as removed and has its gate slots cleared, so a record on the
// free list pins no filter and no instance.
func TestFlowStatsRecycledAndRemoved(t *testing.T) {
	const capacity = 4
	ft := NewFlowTableSharded(capacity, capacity, 1, 1)
	now := pkt.Nanotime()
	inst := &testInstance{name: "i"}
	ins := func(i int) *FlowRecord {
		return ft.Insert(key(i), now+int64(i), []*FilterRecord{{Instance: inst, Private: &flowState{flow: i}}})
	}
	recs := make([]*FlowRecord, 10)
	for i := range recs {
		recs[i] = ins(i)
	}
	want := FlowStats{Inserts: 10, Recycled: 6, Live: capacity, Alloc: capacity}
	check := func(stage string) {
		t.Helper()
		got := ft.Stats()
		got.Hits, got.Misses = 0, 0
		if got != want {
			t.Errorf("%s: stats %+v, want %+v", stage, got, want)
		}
	}
	check("after recycling")
	cleared := func(r *FlowRecord) {
		t.Helper()
		if fr := r.Filter(0); fr != nil {
			t.Errorf("freed record still binds %v", fr)
		}
	}
	ft.Remove(key(9))
	want.Removed, want.Live = 1, 3
	check("after Remove")
	cleared(recs[9])
	ft.FlushWhere(func(r *FlowRecord) bool { return r.Key == key(8) })
	want.Removed, want.Live = 2, 2
	check("after FlushWhere")
	cleared(recs[8])
	ft.PurgeIdle(now + int64(time.Hour))
	want.Removed, want.Live = 4, 0
	check("after PurgeIdle")
	cleared(recs[6])
	cleared(recs[7])
	// Freed records are reused from the free list, not recycled.
	ins(20)
	want.Inserts, want.Live = 11, 1
	check("after reuse")
}

// PurgeIdle racing Lookup and Insert across shards: run with -race.
func TestFlowTableConcurrentPurgeIdle(t *testing.T) {
	ft := NewFlowTableSharded(64, 4096, 1, 8)
	t0 := pkt.Nanotime()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := key(g*10000 + i%512)
				now := t0 + int64(time.Duration(i)*time.Millisecond)
				if ft.Lookup(k, now, nil) == nil {
					ft.Insert(k, now, []*FilterRecord{{Instance: &testInstance{name: "x"}}})
				}
				i++
			}
		}(g)
	}
	for j := 0; j < 50; j++ {
		ft.PurgeIdle(t0 + int64(time.Duration(j*10)*time.Millisecond))
	}
	close(stop)
	wg.Wait()
	// Sanity: the table survived and stats are coherent.
	s := ft.Stats()
	if s.Live != ft.Len() {
		t.Errorf("live stat %d != Len %d", s.Live, ft.Len())
	}
}

// Concurrent inserts and lookups of overlapping key ranges: run with
// -race. Also exercises cross-shard traffic with FlushWhere mixed in.
func TestFlowTableConcurrentInsertLookupFlush(t *testing.T) {
	ft := NewFlowTableSharded(32, 1024, 2, 8)
	now := pkt.Nanotime()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key(i % 300)
				if rec, gen := ft.LookupGen(k, now, nil); rec != nil {
					// A bind read guarded by the captured generation must
					// never observe a torn slice.
					rec.FilterIfCurrent(0, gen)
					continue
				}
				ft.InsertGen(k, now, []*FilterRecord{{Instance: &testInstance{name: "i"}}, nil})
				if i%500 == g {
					ft.FlushWhere(func(r *FlowRecord) bool { return r.Key.SrcPort%97 == uint16(g) })
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFlowTableShardedRecyclePerShard(t *testing.T) {
	// With more live flows than capacity, every shard recycles its own
	// oldest; the table never exceeds its aggregate allocation budget.
	ft := NewFlowTableSharded(8, 64, 1, 4)
	now := pkt.Nanotime()
	for i := 0; i < 500; i++ {
		if ft.Insert(key(i), now+int64(i), nil) == nil {
			t.Fatalf("insert %d failed", i)
		}
	}
	s := ft.Stats()
	if s.Alloc > 64+3 {
		// Per-shard division may round the cap up by at most shards-1.
		t.Errorf("alloc %d exceeds budget", s.Alloc)
	}
	if s.Recycled == 0 {
		t.Error("expected recycling under pressure")
	}
	if ft.Len() > int(s.Alloc) {
		t.Errorf("live %d exceeds alloc %d", ft.Len(), s.Alloc)
	}
}

// Insert keys crafted to collide into one shard: per-shard capacity
// limits apply to that shard alone and other shards stay usable.
func TestFlowTableShardIsolation(t *testing.T) {
	ft := NewFlowTableSharded(8, 64, 1, 8)
	now := pkt.Nanotime()
	target := ft.shardFor(pkt.FlowHash(key(0)))
	same, other := 0, 0
	for i := 0; i < 3000 && (same < 20 || other < 20); i++ {
		k := key(i)
		if ft.shardFor(pkt.FlowHash(k)) == target {
			same++
		} else {
			other++
		}
		ft.Insert(k, now, nil)
	}
	if same < 20 || other < 20 {
		t.Skip("hash did not spread keys enough for this seed")
	}
	if ft.Len() == 0 {
		t.Fatal("no flows live")
	}
}

// current reports whether a record still holds the generation gen: its
// gate slot read passes the generation check.
func current(r *FlowRecord, slot int, gen uint64) bool {
	_, ok := r.FilterIfCurrent(slot, gen)
	return ok
}
