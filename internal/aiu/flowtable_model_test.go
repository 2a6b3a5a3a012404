package aiu

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sched"
)

// modelFlow is the reference model's view of one live flow: the record
// the table returned for it, the generation it was installed under, and
// its last-use time.
type modelFlow struct {
	rec     *FlowRecord
	gen     uint64
	lastUse time.Time
}

// flowModel is the reference the flow table is checked against: a map
// of live flows plus, per shard, a FIFO of keys in creation order — the
// paper's oldest-first recycling, applied per shard.
type flowModel struct {
	live   map[pkt.Key]*modelFlow
	fifo   [][]pkt.Key
	perMax int
}

func (m *flowModel) shard(k pkt.Key) int { return SteerWorker(pkt.FlowHash(k), len(m.fifo)) }

func (m *flowModel) drop(k pkt.Key) {
	q := m.fifo[m.shard(k)]
	for i, o := range q {
		if o == k {
			m.fifo[m.shard(k)] = append(q[:i], q[i+1:]...)
			break
		}
	}
	delete(m.live, k)
}

// TestFlowTableMatchesModel drives the table and the reference model
// with the same random Insert/Lookup/Remove/PurgeIdle/FlushWhere
// sequence and checks, after every step, hit or miss, the record
// identity, Live ≤ MaxFlows, the oldest-first victim of every recycle,
// a generation bump on every eviction, each eviction counted once in
// FlowStats, per-flow state keyed by (slot, generation) reset before a
// slot serves its next flow, and — as the slab doubles — that the index
// grew with it and still finds every live flow.
func TestFlowTableMatchesModel(t *testing.T) {
	cases := []struct {
		shards, initial, max, keys, ops int
	}{
		{1, 1, 8, 24, 4000},
		{1, 4, 200, 600, 8000},
		{8, 8, 64, 200, 8000},
		{8, 64, 2048, 4000, 12000},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("shards=%d/initial=%d/max=%d", tc.shards, tc.initial, tc.max)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.max)))
			ft := NewFlowTableSharded(tc.initial, tc.max, 1, tc.shards)
			m := &flowModel{
				live:   make(map[pkt.Key]*modelFlow),
				fifo:   make([][]pkt.Key, ft.Shards()),
				perMax: (tc.max + ft.Shards() - 1) / ft.Shards(),
			}
			inst := &testInstance{name: "i"}
			// state is a plugin's per-flow state: each live flow's key,
			// in the slot of its record under its generation.
			var state sched.Slab[pkt.Key]
			now := time.Unix(1000, 0)
			// evicted checks that k's old record went stale, and counts
			// the eviction for the FlowStats check after every step.
			evictions := uint64(0)
			evicted := func(op string, k pkt.Key, f *modelFlow) {
				t.Helper()
				if f.rec.Generation() == f.gen || current(f.rec, 0, f.gen) {
					t.Fatalf("%s of %v left its record's generation at %d", op, k, f.gen)
				}
				evictions++
			}
			grew := 0
			lastAlloc := ft.Stats().Alloc
			for step := 0; step < tc.ops; step++ {
				now = now.Add(time.Millisecond)
				k := key(rng.Intn(tc.keys))
				switch op := rng.Intn(100); {
				case op < 45: // Insert
					old := m.live[k]
					var victim pkt.Key
					var vf *modelFlow
					sh := m.shard(k)
					if old == nil && len(m.fifo[sh]) == m.perMax {
						victim = m.fifo[sh][0]
						vf = m.live[victim]
					}
					rec, gen := ft.InsertGen(k, now, []*FilterRecord{{Instance: inst}})
					switch {
					case old != nil:
						if rec != old.rec || gen != old.gen {
							t.Fatalf("step %d: refresh of %v moved it to a new record", step, k)
						}
						old.lastUse = now
					default:
						if vf != nil {
							if rec != vf.rec {
								t.Fatalf("step %d: insert of %v recycled a record other than the oldest (%v)", step, k, victim)
							}
							m.drop(victim)
							evicted("recycle", victim, vf)
						}
						m.live[k] = &modelFlow{rec: rec, gen: gen, lastUse: now}
						m.fifo[sh] = append(m.fifo[sh], k)
						st, fresh := state.Get(rec.Slot(), gen)
						if !fresh {
							t.Fatalf("step %d: %v took slot %d with another flow's state %v", step, k, rec.Slot(), *st)
						}
						*st = k
					}
				case op < 80: // Lookup
					rec, gen := ft.LookupGen(k, now, nil)
					f := m.live[k]
					if (rec != nil) != (f != nil) {
						t.Fatalf("step %d: lookup of %v hit=%v, model says %v", step, k, rec != nil, f != nil)
					}
					if f != nil {
						if rec != f.rec || gen != f.gen || rec.Key != k {
							t.Fatalf("step %d: lookup of %v returned another record", step, k)
						}
						if st, fresh := state.Get(rec.Slot(), gen); fresh || *st != k {
							t.Fatalf("step %d: %v found state %v (fresh %v) in its slot", step, k, *st, fresh)
						}
						f.lastUse = now
					}
				case op < 90: // Remove
					f := m.live[k]
					if got := ft.Remove(k); got != (f != nil) {
						t.Fatalf("step %d: Remove(%v) = %v, model says %v", step, k, got, f != nil)
					}
					if f != nil {
						m.drop(k)
						evicted("remove", k, f)
					}
				case op < 95: // PurgeIdle
					before := now.Add(-time.Duration(rng.Intn(tc.keys)) * time.Millisecond)
					want := map[pkt.Key]*modelFlow{}
					for mk, f := range m.live {
						if f.lastUse.Before(before) {
							want[mk] = f
						}
					}
					if n := ft.PurgeIdle(before); n != len(want) {
						t.Fatalf("step %d: PurgeIdle removed %d, model %d", step, n, len(want))
					}
					for mk, f := range want {
						m.drop(mk)
						evicted("purge", mk, f)
					}
				default: // FlushWhere
					port := uint16(1000 + rng.Intn(tc.keys))
					pred := func(r *FlowRecord) bool { return r.Key.SrcPort%7 == port%7 }
					want := map[pkt.Key]*modelFlow{}
					for mk, f := range m.live {
						if mk.SrcPort%7 == port%7 {
							want[mk] = f
						}
					}
					if n := ft.FlushWhere(pred); n != len(want) {
						t.Fatalf("step %d: FlushWhere removed %d, model %d", step, n, len(want))
					}
					for mk, f := range want {
						m.drop(mk)
						evicted("flush", mk, f)
					}
				}
				st := ft.Stats()
				if st.Live != len(m.live) || st.Live > ft.Shards()*m.perMax || st.Live > tc.max {
					t.Fatalf("step %d: Live %d, model %d, MaxFlows %d", step, st.Live, len(m.live), tc.max)
				}
				if got := st.Recycled + st.Removed; got != evictions {
					t.Fatalf("step %d: FlowStats counts %d evictions, model %d", step, got, evictions)
				}
				if st.Alloc > lastAlloc {
					lastAlloc = st.Alloc
					grew++
					checkIndex(t, ft)
					for mk, f := range m.live {
						if r, g := ft.LookupGen(mk, f.lastUse, nil); r != f.rec || g != f.gen {
							t.Fatalf("step %d: %v lost after the slab grew to %d", step, mk, st.Alloc)
						}
					}
				}
			}
			if grew == 0 && tc.initial < tc.max {
				t.Errorf("the slab never grew from %d records", tc.initial)
			}
			checkIndex(t, ft)
		})
	}
}

// checkIndex checks every shard's index against its slab: at least two
// slots per allocated record, every live record placed exactly once,
// and every bucket's overflow count equal to the records homed at or
// before it that sit past it.
func checkIndex(t *testing.T, ft *FlowTable) {
	t.Helper()
	for s, sh := range ft.shards {
		sh.mu.RLock()
		if len(sh.index)*FlowBucketSlots < slotsPerRecord*sh.nAlloc {
			t.Errorf("shard %d: %d buckets for %d records", s, len(sh.index), sh.nAlloc)
		}
		placed := make(map[uint32]int)
		overflow := make([]uint32, len(sh.index))
		for b := range sh.index {
			bk := &sh.index[b]
			for slot := 0; slot < FlowBucketSlots; slot++ {
				tag := bk.tags >> (8 * slot) & 0xff
				if tag == 0 {
					continue
				}
				i := bk.idx[slot]
				placed[i]++
				h := sh.rec(i).hash
				if tag != tagOf(h) {
					t.Errorf("shard %d: record %d tagged %#x, want %#x", s, i, tag, tagOf(h))
				}
				for p := h & sh.mask; p != uint64(b); p = (p + 1) & sh.mask {
					overflow[p]++
				}
			}
		}
		live := 0
		for i := sh.oldest; i != noRec; i = sh.rec(i).newer {
			live++
			if placed[i] != 1 {
				t.Errorf("shard %d: live record %d placed %d times", s, i, placed[i])
			}
		}
		if live != sh.live || len(placed) != live {
			t.Errorf("shard %d: %d in the age queue, %d placed, live count %d", s, live, len(placed), sh.live)
		}
		for b := range sh.index {
			if sh.index[b].overflow != overflow[b] {
				t.Errorf("shard %d bucket %d: overflow %d, want %d", s, b, sh.index[b].overflow, overflow[b])
			}
		}
		sh.mu.RUnlock()
	}
}

// TestFlowBucketIsOneLine pins the bucket at one 64-byte cache line.
func TestFlowBucketIsOneLine(t *testing.T) {
	if n := unsafe.Sizeof(flowBucket{}); n != 64 {
		t.Errorf("flowBucket is %d bytes, want 64", n)
	}
}

// TestFlowTableOverflowChains packs more keys into one home bucket than
// it has slots, so records spill into later buckets, and checks that
// lookups follow the overflow counts, that removing records from the
// middle of a spill keeps the rest reachable, and that a key not in the
// table still misses after comparing no more keys than a bucket holds
// per line read.
func TestFlowTableOverflowChains(t *testing.T) {
	ft := NewFlowTableSharded(64, 64, 1, 1)
	sh := ft.shards[0]
	// Collect keys whose home bucket is 0.
	var keys []pkt.Key
	for i := 0; len(keys) < 3*FlowBucketSlots; i++ {
		if k := key(i); pkt.FlowHash(k)&sh.mask == 0 {
			keys = append(keys, k)
		}
	}
	now := time.Now()
	for _, k := range keys {
		ft.Insert(k, now, nil)
	}
	checkIndex(t, ft)
	if sh.index[0].overflow != uint32(len(keys)-FlowBucketSlots) {
		t.Errorf("home bucket overflow %d, want %d", sh.index[0].overflow, len(keys)-FlowBucketSlots)
	}
	for i, k := range keys {
		if i%3 == 0 {
			if !ft.Remove(k) {
				t.Fatalf("Remove(%v) missed", k)
			}
		}
	}
	checkIndex(t, ft)
	for i, k := range keys {
		if found := ft.Lookup(k, now, nil) != nil; found != (i%3 != 0) {
			t.Errorf("key %d: found %v after removals", i, found)
		}
		lines, compared := ft.Probe(k)
		if compared > lines*FlowBucketSlots {
			t.Errorf("key %d: %d keys compared over %d lines", i, compared, lines)
		}
	}
}

// TestFlowTableRehashRace runs lookups against a writer that grows
// each table through every slab doubling — each one rebuilding the
// index under the shard's write lock — and then recycles past the cap
// (run with -race). A reader must never be handed another flow's
// record, nor, through a generation it captured, another flow's binds.
// Writer and readers yield every few operations, so that on one CPU too
// the lookups run against a table partway through growing and recycling.
func TestFlowTableRehashRace(t *testing.T) {
	const (
		flows   = 512
		max     = 256
		rounds  = 12
		readers = 3
	)
	insts := make([]*testInstance, flows)
	for f := range insts {
		insts[f] = &testInstance{name: fmt.Sprint("flow", f)}
	}
	var table atomic.Pointer[FlowTable]
	table.Store(NewFlowTableSharded(1, max, 1, 2))
	var stop atomic.Bool
	var hits atomic.Uint64
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	now := time.Now()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				if i%64 == 0 {
					runtime.Gosched()
				}
				f := i % flows
				rec, gen := table.Load().LookupGen(key(f), now, nil)
				if rec == nil {
					continue
				}
				hits.Add(1)
				if b, ok := rec.FilterIfCurrent(0, gen); ok {
					st, _ := b.Private.(*flowState)
					if b.Instance != insts[f] || st == nil || st.flow != f {
						errc <- fmt.Errorf("lookup of flow %d bound to %v / %+v", f, b.Instance, st)
						return
					}
				}
			}
		}(g)
	}
	rehashes := 0
	for r := 0; r < rounds; r++ {
		ft := NewFlowTableSharded(1, max, 1, 2)
		table.Store(ft)
		for i := 0; i < 2*flows; i++ {
			f := (i*7 + r) % flows
			if i%16 == 0 {
				runtime.Gosched()
			}
			before := ft.Stats().Alloc
			ft.Insert(key(f), now, []*FilterRecord{{Instance: insts[f], Private: &flowState{flow: f}}})
			if ft.Stats().Alloc > before {
				rehashes++
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if hits.Load() == 0 || rehashes < rounds {
		t.Errorf("readers hit %d times across %d slab growths; the race needs both", hits.Load(), rehashes)
	}
}
