package aiu

import (
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pkt"
)

func key(i int) pkt.Key {
	return pkt.Key{
		Src: pkt.AddrV4(0x0a000000 + uint32(i)), Dst: pkt.AddrV4(0x0b000000 + uint32(i)),
		Proto: pkt.ProtoUDP, SrcPort: uint16(1000 + i%60000), DstPort: 53, InIf: 0,
	}
}

func TestFlowTableInsertLookup(t *testing.T) {
	ft := NewFlowTable(16, 64, 3)
	now := time.Now()
	r := ft.Insert(key(1), now, nil)
	if r == nil {
		t.Fatal("Insert returned nil")
	}
	got := ft.Lookup(key(1), now, nil)
	if got != r {
		t.Fatalf("Lookup returned %p, want %p", got, r)
	}
	if ft.Lookup(key(2), now, nil) != nil {
		t.Error("missing key should miss")
	}
	s := ft.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 || s.Live != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFlowTableSameFiveTupleDifferentIf(t *testing.T) {
	ft := NewFlowTable(4, 16, 1)
	now := time.Now()
	k1 := key(1)
	k2 := k1
	k2.InIf = 3
	r1 := ft.Insert(k1, now, nil)
	r2 := ft.Insert(k2, now, nil)
	if r1 == r2 {
		t.Error("flows on different interfaces must have distinct records")
	}
	if ft.Lookup(k1, now, nil) != r1 || ft.Lookup(k2, now, nil) != r2 {
		t.Error("lookup confused interface-distinguished flows")
	}
}

func TestFlowTableInsertIdempotent(t *testing.T) {
	ft := NewFlowTable(4, 16, 1)
	now := time.Now()
	r1 := ft.Insert(key(9), now, nil)
	r2 := ft.Insert(key(9), now.Add(time.Second), nil)
	if r1 != r2 {
		t.Error("reinsert created a new record")
	}
	if ft.Len() != 1 {
		t.Errorf("Len = %d", ft.Len())
	}
}

func TestFlowTableGrowth(t *testing.T) {
	// One shard: with several, how the 40 flows split among them (and
	// so whether one shard hits its share of the cap) depends on the
	// per-process hash seed.
	ft := NewFlowTableSharded(4, 64, 1, 1)
	now := time.Now()
	for i := 0; i < 40; i++ {
		ft.Insert(key(i), now, nil)
	}
	s := ft.Stats()
	if s.Live != 40 {
		t.Errorf("live = %d want 40", s.Live)
	}
	// Growth is exponential: 4, then +4, +8, +16, +32 -> alloc >= 40.
	if s.Alloc < 40 || s.Alloc > 64 {
		t.Errorf("alloc = %d", s.Alloc)
	}
}

type evictSpy struct {
	testInstance
	evicted []pkt.Key
}

func (e *evictSpy) FlowEvicted(key pkt.Key, slot int, b GateBind) {
	e.evicted = append(e.evicted, key)
}

func TestFlowTableRecycleOldest(t *testing.T) {
	// A single shard keeps the paper's exact global-oldest recycling;
	// with multiple shards each shard recycles its own oldest record.
	ft := NewFlowTableSharded(4, 8, 1, 1)
	now := time.Now()
	spy := &evictSpy{}
	for i := 0; i < 8; i++ {
		ft.Insert(key(i), now.Add(time.Duration(i)), []GateBind{{Instance: spy}})
	}
	if ft.Stats().Alloc != 8 {
		t.Fatalf("alloc = %d want 8 (cap)", ft.Stats().Alloc)
	}
	// Ninth flow must recycle the oldest (key 0).
	ft.Insert(key(100), now.Add(time.Hour), []GateBind{{Instance: spy}})
	if ft.Lookup(key(0), now, nil) != nil {
		t.Error("oldest record not recycled")
	}
	if ft.Lookup(key(100), now, nil) == nil {
		t.Error("new flow not installed")
	}
	s := ft.Stats()
	if s.Recycled != 1 {
		t.Errorf("recycled = %d want 1", s.Recycled)
	}
	if len(spy.evicted) != 1 || spy.evicted[0] != key(0) {
		t.Errorf("evict listener saw %v", spy.evicted)
	}
	if ft.Len() != 8 {
		t.Errorf("live = %d want 8", ft.Len())
	}
}

func TestFlowTableRemove(t *testing.T) {
	ft := NewFlowTable(4, 16, 1)
	now := time.Now()
	ft.Insert(key(5), now, nil)
	if !ft.Remove(key(5)) {
		t.Fatal("Remove returned false")
	}
	if ft.Remove(key(5)) {
		t.Error("double Remove returned true")
	}
	if ft.Lookup(key(5), now, nil) != nil {
		t.Error("removed flow still found")
	}
	// Freed record is reused.
	before := ft.Stats().Alloc
	ft.Insert(key(6), now, nil)
	if ft.Stats().Alloc != before {
		t.Error("free-listed record not reused")
	}
}

func TestFlowTablePurgeIdle(t *testing.T) {
	ft := NewFlowTable(8, 32, 1)
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		ft.Insert(key(i), t0.Add(time.Duration(i)*time.Second), nil)
	}
	n := ft.PurgeIdle(t0.Add(5 * time.Second))
	if n != 5 {
		t.Errorf("purged %d want 5", n)
	}
	if ft.Len() != 5 {
		t.Errorf("live = %d want 5", ft.Len())
	}
	if ft.Lookup(key(2), t0, nil) != nil || ft.Lookup(key(7), t0, nil) == nil {
		t.Error("wrong records purged")
	}
}

func TestFlowTableChainAccounting(t *testing.T) {
	// Table 2 units: the hash's function pointer, then one access per
	// bucket line and one per key compared — a hit reads its home
	// bucket and compares only the key whose tag matched.
	ft := NewFlowTable(8, 32, 1)
	now := time.Now()
	for i := 0; i < 4; i++ {
		ft.Insert(key(i), now, nil)
	}
	var c cycles.Counter
	ft.Lookup(key(0), now, &c)
	if c.FnPtr != 1 {
		t.Errorf("hash function pointer charged %d times", c.FnPtr)
	}
	if lines, keys := ft.Probe(key(0)); c.Mem != uint64(lines+keys) || lines < 1 || keys < 1 {
		t.Errorf("accesses = %d for %d bucket lines and %d keys compared", c.Mem, lines, keys)
	}
}

func TestFlowTableFlushWhere(t *testing.T) {
	ft := NewFlowTable(8, 32, 2)
	now := time.Now()
	instA, instB := &testInstance{name: "a"}, &testInstance{name: "b"}
	ft.Insert(key(1), now, []GateBind{{Instance: instA}, {}})
	ft.Insert(key(2), now, []GateBind{{Instance: instB}, {}})
	ft.Insert(key(3), now, []GateBind{{}, {Instance: instA}})
	n := ft.FlushWhere(func(r *FlowRecord) bool {
		for i := 0; i < r.Slots(); i++ {
			if r.Bind(i).Instance == instA {
				return true
			}
		}
		return false
	})
	if n != 2 {
		t.Errorf("flushed %d want 2", n)
	}
	if ft.Lookup(key(2), now, nil) == nil {
		t.Error("unrelated flow flushed")
	}
}
