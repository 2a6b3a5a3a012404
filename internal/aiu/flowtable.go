package aiu

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// Flow-table sizing defaults from the paper (§5.2): the bucket array is
// allocated at boot with a default of 32768 entries; a small number of
// flow records (default 1024) is preallocated on a free list and grown
// exponentially (1024, 2048, 4096, ...) as demand arises; once a
// configured maximum is reached, the oldest records are recycled.
//
// DefaultFlowShards is ours, not the paper's: the paper's table lives in
// a uniprocessor kernel with a single flow of control, while this table
// is split into power-of-two shards — each with its own lock, bucket
// region, free list, and recycle queue — so per-packet lookups on
// different cores never serialize. The shard is selected from the top
// bits of the same five-tuple hash the buckets use, which lets the
// worker pool steer packets so each shard is touched by one worker.
const (
	DefaultFlowBuckets  = 32768
	DefaultInitialFlows = 1024
	DefaultMaxFlows     = 65536
	DefaultFlowShards   = 8
	maxFlowShards       = 256 // shard index comes from the hash's top byte
)

// GateBind is one gate's slot in a flow record: the plugin instance the
// flow is bound to at that gate and the per-flow soft state the instance
// keeps there (§5.2 item 1 — e.g. the DRR plugin stores the pointer to
// its per-flow packet queue here).
type GateBind struct {
	Instance pcu.Instance
	// Private is per-flow, per-gate plugin soft state.
	Private any
	// Rec is the filter record this binding was derived from (§5.2
	// item 2).
	Rec *FilterRecord
}

// FlowRecord is one row of the flow table: the cache entry for an active
// flow, holding the resolved plugin instance for every gate so that
// packets after the first skip classification entirely. A pointer to the
// row travels in the packet as the flow index (FIX).
type FlowRecord struct {
	Key pkt.Key
	// binds is published atomically: the data path reads gate slots
	// lock-free through the FIX while the control path (eviction,
	// recycling) swaps in a fresh slice under the shard lock. A swap
	// orphans the old slice, so in-flight readers see a consistent —
	// if momentarily stale — view, the same guarantee the paper's
	// kernel gets from its single flow of control.
	binds atomic.Pointer[[]GateBind]

	// gen is the record's generation: bumped every time the record is
	// evicted (recycled, purged, or flushed). A packet captures the
	// generation alongside the FIX; a mismatch at a gate means the
	// record has been rebound to a different flow since the packet was
	// classified, and the packet must reclassify instead of dispatching
	// through the new flow's instances.
	gen atomic.Uint64

	// lastUse is the arrival time (unix nanos) of the last packet that
	// hit this record; the idle purge uses it. It is stored atomically
	// because cache hits update it under the shard's read lock.
	lastUse atomic.Int64

	hash uint32
	next *FlowRecord // hash-chain link (§5.2: collisions on a singly linked list)

	// Creation-order queue link for oldest-first recycling (per shard).
	older, newer *FlowRecord
}

// Bind returns the slot for a gate (indexed by the AIU's gate order).
//
//eisr:fastpath
func (r *FlowRecord) Bind(slot int) *GateBind { return &(*r.binds.Load())[slot] }

// BindIfCurrent returns the slot for a gate only if the record still
// belongs to the generation the caller captured at lookup time; nil
// means the record was evicted (and possibly rebound to a new flow) in
// the meantime and the caller must reclassify. The binds pointer is
// loaded before the generation: eviction bumps the generation before
// publishing the record's next bind set (the cleared set when the
// record is freed, the new flow's when it is recycled), so a matching
// generation proves the loaded slice predates the eviction (Go's
// sync/atomic operations are sequentially consistent).
//
//eisr:fastpath
func (r *FlowRecord) BindIfCurrent(slot int, gen uint64) *GateBind {
	b := r.binds.Load()
	if r.gen.Load() != gen {
		return nil
	}
	return &(*b)[slot]
}

// Generation returns the record's current generation.
//
//eisr:fastpath
func (r *FlowRecord) Generation() uint64 { return r.gen.Load() }

// Slots returns the number of gate slots in the record.
//
//eisr:fastpath
func (r *FlowRecord) Slots() int { return len(*r.binds.Load()) }

// LastUse returns the arrival time of the last packet that hit this
// record.
func (r *FlowRecord) LastUse() time.Time { return time.Unix(0, r.lastUse.Load()) }

// touch stamps the record's last-use time. Safe under the read lock.
//
//eisr:fastpath
func (r *FlowRecord) touch(now time.Time) { r.lastUse.Store(now.UnixNano()) }

// FlowEvictListener is implemented by plugin instances that keep per-flow
// soft state and need to reclaim it when the AIU removes or recycles a
// flow record. The paper's create-instance message lets a plugin supply
// "functions which are called by the AIU on removal of an entry in the
// flow or filter table"; in Go the natural encoding is an optional
// interface.
//
// FlowEvicted runs *after* the shard lock is released (the lockscope
// invariant: no plugin callback ever executes under an AIU mutex), so by
// the time it runs the record may already have been recycled for a new
// flow. The evicted flow's key and gate-slot contents are therefore
// passed by value, captured at eviction time; no record pointer is
// exposed.
type FlowEvictListener interface {
	FlowEvicted(key pkt.Key, slot int, b GateBind)
}

// FlowStats counts flow-table events, merged across shards.
type FlowStats struct {
	Hits    uint64
	Misses  uint64
	Inserts uint64
	// Recycled counts live records taken over by a new flow (oldest
	// first, once the shard is at its cap); Removed counts records
	// freed by Remove, PurgeIdle and FlushWhere. An eviction is one or
	// the other, never both.
	Recycled uint64
	Removed  uint64
	Live     int
	Alloc    int
}

// flowShard is one independently locked slice of the flow table: its own
// bucket region, free list, recycle (age) queue, and counters. Flows
// never migrate between shards — the shard is a pure function of the
// five-tuple hash — so two packets of one flow always contend on the
// same shard (and, with hash steering, on the same worker).
type flowShard struct {
	mu      sync.RWMutex
	buckets []*FlowRecord
	mask    uint32

	free     *FlowRecord
	nAlloc   int
	nextGrow int
	maxAlloc int
	oldest   *FlowRecord
	newest   *FlowRecord
	live     int

	// hits and misses are atomics so the fast-path Lookup can count them
	// under the read lock; the remaining counters only move under the
	// write lock.
	hits   atomic.Uint64
	misses atomic.Uint64
	stats  FlowStats
}

// FlowTable is the hash-based flow cache. The hash covers the five header
// fields <src, dst, proto, sport, dport>; the top byte of the hash picks
// a shard, the low bits a bucket within it; chains resolve collisions;
// records come from per-shard free lists that grow exponentially up to a
// per-shard cap, after which the shard's oldest records are recycled.
type FlowTable struct {
	shards    []*flowShard
	shardMask uint32
	gates     int

	// Registry-owned telemetry cells (SetTelemetry, assembly time): the
	// quantities with no FlowStats counter. Shared by every shard — the
	// cells are themselves internally sharded. Nil when telemetry is
	// off; record methods on nil cells are no-ops.
	telLive  *telemetry.Gauge
	telChain *telemetry.Histogram
}

// evictNotice is a deferred FlowEvicted callback: eviction captures the
// listener and the slot contents under the write lock, and the table
// delivers the notice after the lock is released so plugin callbacks
// never run under an AIU mutex.
type evictNotice struct {
	listener FlowEvictListener
	key      pkt.Key
	slot     int
	bind     GateBind
}

// evictNoticeBuf sizes the stack buffer an evicting caller collects
// notices in: one per listening gate of one record covers the default
// gate set, so recycling a record on the insert path allocates none.
// More notices spill to the heap.
const evictNoticeBuf = 4

// notify delivers deferred evict callbacks. Must be called with no shard
// lock held.
func notify(notices []evictNotice) {
	for _, n := range notices {
		n.listener.FlowEvicted(n.key, n.slot, n.bind)
	}
}

// NewFlowTable builds a flow table with the given bucket count (rounded
// up to a power of two), initial and maximum record counts, the number
// of gate slots per record, and the default shard count.
func NewFlowTable(buckets, initial, max, gates int) *FlowTable {
	return NewFlowTableSharded(buckets, initial, max, gates, 0)
}

// NewFlowTableSharded builds a flow table with an explicit shard count
// (rounded up to a power of two, capped at 256; 0 selects the default).
// The bucket, initial, and maximum counts are table-wide and divided
// among the shards. A single-shard table has exactly the original
// table's global recycling semantics; with more shards, recycling and
// growth caps apply per shard.
func NewFlowTableSharded(buckets, initial, max, gates, shards int) *FlowTable {
	if buckets <= 0 {
		buckets = DefaultFlowBuckets
	}
	if initial <= 0 {
		initial = DefaultInitialFlows
	}
	if max < initial {
		max = initial
	}
	if shards <= 0 {
		shards = DefaultFlowShards
	}
	ns := 1
	for ns < shards && ns < maxFlowShards {
		ns <<= 1
	}
	perBuckets := pow2((buckets + ns - 1) / ns)
	perInitial := (initial + ns - 1) / ns
	if perInitial < 1 {
		perInitial = 1
	}
	perMax := (max + ns - 1) / ns
	if perMax < perInitial {
		perMax = perInitial
	}
	t := &FlowTable{
		shards:    make([]*flowShard, ns),
		shardMask: uint32(ns - 1),
		gates:     gates,
	}
	for i := range t.shards {
		sh := &flowShard{
			buckets:  make([]*FlowRecord, perBuckets),
			mask:     uint32(perBuckets - 1),
			nextGrow: perInitial,
			maxAlloc: perMax,
		}
		sh.grow(perInitial, gates)
		t.shards[i] = sh
	}
	return t
}

// pow2 rounds n up to a power of two (minimum 1).
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Shards returns the shard count.
func (t *FlowTable) Shards() int { return len(t.shards) }

// shardFor selects the shard from the hash's top byte. The worker pool
// steers packets by the same byte (SteerWorker), so with a power-of-two
// worker count no two workers ever contend on one shard.
//
//eisr:fastpath
func (t *FlowTable) shardFor(h uint32) *flowShard {
	return t.shards[(h>>24)&t.shardMask]
}

// SteerWorker maps a flow key to a worker index in [0, n): the top byte
// of the five-tuple hash modulo the worker count. Packets of one flow
// always map to the same worker (per-flow ordering), and because the
// flow table's shard is selected from the same byte, a power-of-two
// worker count gives each shard a single owning worker — zero
// cross-worker lock contention on the cache-hit path.
//
//eisr:fastpath
func SteerWorker(k pkt.Key, n int) int {
	if n <= 1 {
		return 0
	}
	return int((HashKey(k) >> 24) % uint32(n))
}

// grow allocates count records onto the shard's free list.
func (sh *flowShard) grow(count, gates int) {
	for i := 0; i < count && sh.nAlloc < sh.maxAlloc; i++ {
		r := &FlowRecord{}
		b := make([]GateBind, gates)
		r.binds.Store(&b)
		r.next = sh.free
		sh.free = r
		sh.nAlloc++
	}
}

// HashKey is the paper's cheap five-tuple hash ("executed in 17
// processor cycles on a Pentium"): a xor-fold of the address words with
// the ports and protocol mixed in, finished with one multiplicative
// scramble so sequential flow populations — the common case for
// synthetic and scanned traffic — spread across buckets. A handful of
// ALU ops plus one multiply keeps it in the original's cost class.
func HashKey(k pkt.Key) uint32 {
	var h uint32
	s, d := k.Src.As16(), k.Dst.As16()
	for i := 0; i < 16; i += 4 {
		h ^= uint32(s[i])<<24 | uint32(s[i+1])<<16 | uint32(s[i+2])<<8 | uint32(s[i+3])
		h ^= uint32(d[i])<<24 | uint32(d[i+1])<<16 | uint32(d[i+2])<<8 | uint32(d[i+3])
	}
	h ^= uint32(k.SrcPort)<<16 | uint32(k.DstPort)
	h ^= uint32(k.Proto) << 8
	h *= 0x9e3779b1 // Fibonacci scramble
	h ^= h >> 15
	return h
}

// Lookup finds the record for a fully specified six-tuple. The counter is
// charged one function-pointer load (the "index hash" row of Table 2) and
// one memory access per chain element examined. Hits take only the
// shard's read lock, so concurrent per-packet lookups never serialize on
// each other; the last-use stamp and the hit/miss counters are atomics
// for the same reason.
//
//eisr:fastpath
func (t *FlowTable) Lookup(k pkt.Key, now time.Time, c *cycles.Counter) *FlowRecord {
	r, _ := t.LookupGen(k, now, c)
	return r
}

// LookupGen is Lookup returning the record's generation as well,
// captured under the shard lock so the caller can later detect that the
// record was recycled for a different flow (BindIfCurrent).
//
//eisr:fastpath
func (t *FlowTable) LookupGen(k pkt.Key, now time.Time, c *cycles.Counter) (*FlowRecord, uint64) {
	c.FnPointer()
	h := HashKey(k)
	sh := t.shardFor(h)
	var chain uint64
	sh.mu.RLock()
	for r := sh.buckets[h&sh.mask]; r != nil; r = r.next {
		c.Access(1)
		chain++
		if r.Key == k {
			r.touch(now)
			gen := r.gen.Load()
			sh.mu.RUnlock()
			sh.hits.Add(1)
			t.telChain.Observe(chain)
			return r, gen
		}
	}
	sh.mu.RUnlock()
	sh.misses.Add(1)
	t.telChain.Observe(chain)
	return nil, 0
}

// Insert creates (or refreshes) the record for a six-tuple, taking a
// record from the shard's free list, growing it exponentially if
// exhausted, or recycling the shard's oldest live record once the
// allocation cap is reached. binds, when non-nil, becomes the record's
// gate slots, published under the shard lock, so a record can never be
// observed half-filled or recycled between creation and fill. The table
// adopts a slice with one slot per gate — the caller must not reuse it —
// and copies any other length into a fresh one. A nil binds refreshes
// an existing record's slots unchanged and gives a new record cleared
// ones.
func (t *FlowTable) Insert(k pkt.Key, now time.Time, binds []GateBind) *FlowRecord {
	r, _ := t.InsertGen(k, now, binds)
	return r
}

// InsertGen is Insert returning the record's generation, captured under
// the shard lock (see LookupGen).
func (t *FlowTable) InsertGen(k pkt.Key, now time.Time, binds []GateBind) (*FlowRecord, uint64) {
	set := binds
	if len(set) != t.gates {
		set = make([]GateBind, t.gates)
		copy(set, binds)
	}
	h := HashKey(k)
	sh := t.shardFor(h)
	var buf [evictNoticeBuf]evictNotice
	sh.mu.Lock()
	// Refresh an existing record for the same key, if any.
	idx := h & sh.mask
	for r := sh.buckets[idx]; r != nil; r = r.next {
		if r.Key == k {
			r.touch(now)
			if binds != nil {
				r.binds.Store(&set)
			}
			gen := r.gen.Load()
			sh.mu.Unlock()
			return r, gen
		}
	}
	// A recycled record had its generation bumped in takeRecord, under
	// this lock hold, so publishing the new flow's binds straight over
	// the old flow's is safe: a FIX holder of the old flow fails its
	// generation check before it could read them.
	r, notices := sh.takeRecord(t, buf[:0])
	r.Key = k
	r.hash = h
	r.touch(now)
	r.binds.Store(&set)
	r.next = sh.buckets[idx]
	sh.buckets[idx] = r
	sh.pushNewest(r)
	sh.live++
	sh.stats.Inserts++
	gen := r.gen.Load()
	t.telLive.Add(1)
	sh.mu.Unlock()
	notify(notices)
	return r, gen
}

// takeRecord pops the shard's free list, growing or recycling as needed,
// and appends deferred evict notices for a record it recycles to
// notices. A recycled record keeps the evicted flow's binds: the caller
// publishes the new flow's next. Called with the shard's write lock
// held.
func (sh *flowShard) takeRecord(t *FlowTable, notices []evictNotice) (*FlowRecord, []evictNotice) {
	if sh.free == nil && sh.nAlloc < sh.maxAlloc {
		grow := sh.nextGrow
		sh.nextGrow *= 2
		sh.grow(grow, t.gates)
	}
	if sh.free != nil {
		r := sh.free
		sh.free = r.next
		r.next = nil
		return r, notices
	}
	// Recycle the shard's oldest live record.
	r := sh.oldest
	if r == nil {
		// Degenerate configuration (max 0); allocate anyway.
		return &FlowRecord{}, notices
	}
	notices = sh.evictLocked(t, r, notices)
	sh.stats.Recycled++
	r.next = nil
	return r, notices
}

// Remove deletes the record for a key, reporting whether it was present.
func (t *FlowTable) Remove(k pkt.Key) bool {
	h := HashKey(k)
	sh := t.shardFor(h)
	var buf [evictNoticeBuf]evictNotice
	sh.mu.Lock()
	for r := sh.buckets[h&sh.mask]; r != nil; r = r.next {
		if r.Key == k {
			notices := sh.removeLocked(t, r, buf[:0])
			sh.mu.Unlock()
			notify(notices)
			return true
		}
	}
	sh.mu.Unlock()
	return false
}

// PurgeIdle removes records idle since before the deadline (§3.2: "if a
// cached flow remains idle for an extended period, its cached entry may
// be removed"). Shards are purged one at a time — the janitor never
// holds more than one shard lock — and evict callbacks for each shard
// are delivered after its lock is dropped. It returns the number purged.
func (t *FlowTable) PurgeIdle(before time.Time) int {
	n := 0
	for _, sh := range t.shards {
		var buf [evictNoticeBuf]evictNotice
		notices := buf[:0]
		sh.mu.Lock()
		for r := sh.oldest; r != nil; {
			next := r.newer
			if r.LastUse().Before(before) {
				notices = sh.removeLocked(t, r, notices)
				n++
			}
			r = next
		}
		sh.mu.Unlock()
		notify(notices)
	}
	return n
}

// FlushWhere removes every record for which pred returns true — used when
// instances are freed or filters removed, so no stale instance pointers
// survive in the cache. Same one-shard-at-a-time locking as PurgeIdle.
func (t *FlowTable) FlushWhere(pred func(*FlowRecord) bool) int {
	n := 0
	for _, sh := range t.shards {
		var buf [evictNoticeBuf]evictNotice
		notices := buf[:0]
		sh.mu.Lock()
		for r := sh.oldest; r != nil; {
			next := r.newer
			if pred(r) {
				notices = sh.removeLocked(t, r, notices)
				n++
			}
			r = next
		}
		sh.mu.Unlock()
		notify(notices)
	}
	return n
}

// evictLocked unlinks a live record from its chain and the shard's age
// queue and bumps its generation, so every FIX to it goes stale. It
// leaves the binds alone: the caller publishes the record's next set —
// the cleared set when the record is freed (removeLocked), the new
// flow's when it is recycled (InsertGen) — always after the generation
// moved, so a FIX holder that still reads the old generation is
// guaranteed to see the pre-eviction binds (BindIfCurrent). Listener
// callbacks are NOT invoked here: they are appended to notices for the
// caller to deliver once the shard lock is dropped, so plugin code
// never runs under an AIU mutex.
func (sh *flowShard) evictLocked(t *FlowTable, r *FlowRecord, notices []evictNotice) []evictNotice {
	idx := r.hash & sh.mask
	for pp := &sh.buckets[idx]; *pp != nil; pp = &(*pp).next {
		if *pp == r {
			*pp = r.next
			break
		}
	}
	sh.popAge(r)
	sh.live--
	t.telLive.Add(-1)
	r.gen.Add(1)
	old := *r.binds.Load()
	for slot := range old {
		if l, ok := old[slot].Instance.(FlowEvictListener); ok {
			notices = append(notices, evictNotice{listener: l, key: r.Key, slot: slot, bind: old[slot]})
		}
	}
	return notices
}

// removeLocked evicts a live record for good: it counts the removal,
// publishes a cleared bind set — so a record on the free list pins no
// plugin instance and no per-flow state — and returns the record to the
// shard's free list.
func (sh *flowShard) removeLocked(t *FlowTable, r *FlowRecord, notices []evictNotice) []evictNotice {
	notices = sh.evictLocked(t, r, notices)
	sh.stats.Removed++
	cleared := make([]GateBind, t.gates)
	r.binds.Store(&cleared)
	r.next = sh.free
	sh.free = r
	return notices
}

func (sh *flowShard) pushNewest(r *FlowRecord) {
	r.older = sh.newest
	r.newer = nil
	if sh.newest != nil {
		sh.newest.newer = r
	}
	sh.newest = r
	if sh.oldest == nil {
		sh.oldest = r
	}
}

func (sh *flowShard) popAge(r *FlowRecord) {
	if r.older != nil {
		r.older.newer = r.newer
	} else if sh.oldest == r {
		sh.oldest = r.newer
	}
	if r.newer != nil {
		r.newer.older = r.older
	} else if sh.newest == r {
		sh.newest = r.older
	}
	r.older, r.newer = nil, nil
}

// Len returns the number of live records, summed one shard at a time.
func (t *FlowTable) Len() int {
	n := 0
	for _, sh := range t.shards {
		sh.mu.RLock()
		n += sh.live
		sh.mu.RUnlock()
	}
	return n
}

// Stats snapshots the table counters, merging the per-shard structures
// and the fast-path atomics. Shard locks are taken one at a time, so the
// snapshot is per-shard consistent, not globally atomic — the usual
// deal for sharded statistics.
func (t *FlowTable) Stats() FlowStats {
	var s FlowStats
	for _, sh := range t.shards {
		sh.mu.RLock()
		s.Inserts += sh.stats.Inserts
		s.Recycled += sh.stats.Recycled
		s.Removed += sh.stats.Removed
		s.Live += sh.live
		s.Alloc += sh.nAlloc
		sh.mu.RUnlock()
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
	}
	return s
}
