package aiu

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// Flow-table sizing defaults from the paper (§5.2): a small number of
// flow records (default 1024) is preallocated and grown exponentially
// (1024, 2048, 4096, ...) as demand arises; once a configured maximum
// is reached, the oldest records are recycled. The paper also allocates
// a 32768-entry bucket array at boot. Here each shard's bucket index
// grows with its records instead (flowShard.grow), so a table sized for
// a million flows costs at boot only what its initial records need.
//
// DefaultFlowShards is ours, not the paper's: the paper's table lives in
// a uniprocessor kernel with a single flow of control, while this table
// is split into power-of-two shards — each with its own lock, index,
// record slab, free list, and recycle queue — so per-packet lookups on
// different cores never serialize. The shard is selected from the top
// byte of the flow hash, the byte Receive steers packets to the workers'
// RX rings by, so each shard is touched by one worker.
const (
	DefaultInitialFlows = 1024
	DefaultMaxFlows     = 65536
	DefaultFlowShards   = 8
	maxFlowShards       = 256 // shard index comes from the hash's top byte
)

// FlowRecord is one row of the flow table: the cache entry for an active
// flow, holding the filter record it was classified to at every gate so
// that packets after the first skip classification entirely. A pointer
// to the row travels in the packet as the flow index (FIX). Records live
// in their shard's slab and never move, so a FIX stays a valid pointer
// for the table's lifetime; the generation tells whether it still names
// the same flow.
type FlowRecord struct {
	Key pkt.Key
	// slot is the record's table-wide index (Slot); it fills the key's
	// tail padding.
	slot uint32
	// binds is the record's gate slots, one per gate in the AIU's gate
	// order: the filter record the flow was classified to there (its
	// Instance is the flow's plugin instance, its Private the plugin's
	// per-filter state), unbound where no filter matched. The slots sit in
	// the shard's slab beside the record, allocated for a group of
	// bindGroup records when the group's first record takes a flow, and
	// are written only under the shard lock, into a record whose
	// generation has just moved (a new flow taking a free or recycled
	// record), so the data path reads a slot lock-free and one
	// generation never shows two flows' binds.
	binds []atomic.Pointer[FilterRecord]

	// gen is the record's generation: bumped every time the record is
	// evicted (recycled, purged, or flushed). A packet captures the
	// generation alongside the FIX; a mismatch at a gate means the
	// record has been rebound to a different flow since the packet was
	// classified, and the packet must reclassify instead of dispatching
	// through the new flow's instances.
	gen atomic.Uint64

	// lastUse is the arrival time (pkt.Nanotime) of the last packet that
	// hit this record; the idle purge uses it. It is stored atomically
	// because cache hits update it under the shard's read lock.
	lastUse atomic.Int64

	// hash is Key's flow hash, kept so an eviction finds the record's
	// bucket without hashing the key again.
	hash uint64
	// older and newer link the shard's creation-order queue by slab
	// index (noRec ends it); a free record's newer links the free list.
	older, newer uint32
}

// Filter returns the filter record the flow was classified to at a gate
// slot (indexed by the AIU's gate order), nil when no filter matched.
// The load is not generation-guarded: a plugin reading its own gate's
// slot through a packet's FIX sees the record's current flow.
//
//eisr:fastpath
func (r *FlowRecord) Filter(slot int) *FilterRecord { return bound(r.binds[slot].Load()) }

// FilterIfCurrent is Filter guarded by the generation the caller
// captured at lookup time: ok is false when the record was evicted (and
// possibly rebound to a new flow) in the meantime and the caller must
// reclassify. The slot is loaded before the generation: binds are
// written only after the generation moved, so a matching generation
// proves the loaded filter predates the eviction (Go's sync/atomic
// operations are sequentially consistent).
//
//eisr:fastpath
func (r *FlowRecord) FilterIfCurrent(slot int, gen uint64) (*FilterRecord, bool) {
	fr := r.binds[slot].Load()
	return bound(fr), r.gen.Load() == gen
}

// unbound fills the gate slot of a flow that no filter matched at that
// gate, so a live record's slots are never nil and the gate macro reads
// the (nil) instance without a nil check. Filter and FilterIfCurrent
// report it as nil.
var unbound FilterRecord

// bound maps unbound to nil.
//
//eisr:fastpath
func bound(fr *FilterRecord) *FilterRecord {
	if fr == &unbound {
		return nil
	}
	return fr
}

// Generation returns the record's current generation.
//
//eisr:fastpath
func (r *FlowRecord) Generation() uint64 { return r.gen.Load() }

// Slot returns the record's flow slot: a dense table-wide index,
// idx<<shardBits | shard, fixed for the table's lifetime. It is the
// paper's flow index used as an array index — plugins keep per-flow
// state in slabs indexed by it, keyed by the generation (see
// sched.Slab) — and a lightly loaded table's slots stay small.
//
//eisr:fastpath
func (r *FlowRecord) Slot() uint32 { return r.slot }

// Slots returns the number of gate slots in the record.
func (r *FlowRecord) Slots() int { return len(r.binds) }

// LastUse returns the arrival time of the last packet that hit this
// record, on the pkt.Nanotime clock.
func (r *FlowRecord) LastUse() int64 { return r.lastUse.Load() }

// touch stamps the record's last-use time. Safe under the read lock.
//
//eisr:fastpath
func (r *FlowRecord) touch(now int64) { r.lastUse.Store(now) }

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

// FlowBucketSlots is the number of slots in one bucket of the flow
// table's index: one cache line holds their one-byte tags and uint32
// record indices, and a lookup compares a key only where the tag
// matches, so it compares at most this many keys per line it reads.
const FlowBucketSlots = 8

// Slab and index geometry. Records are addressed by a uint32 slab
// index: page i>>pageShift, entry i&(pageSize-1).
const (
	pageShift = 6
	pageSize  = 1 << pageShift
	// slotsPerRecord sizes the index at two slots per allocated record,
	// so it is at most half full and a bucket rarely overflows into the
	// next one.
	slotsPerRecord = 2
	noRec          = ^uint32(0)
)

// recPage is one fixed-size page of a shard's record slab.
type recPage [pageSize]FlowRecord

// flowBucket is one cache line of a shard's open-addressed index: the
// tags of its slots packed into one word (byte s is slot s's tag; 0 is
// an empty slot), their record indices, and how many records homed at
// or before this bucket were placed past it because it was full. A
// lookup stops at the first bucket with no overflow.
type flowBucket struct {
	tags     uint64
	idx      [FlowBucketSlots]uint32
	overflow uint32
	_        [20]byte // pad to 64 bytes
}

// Byte-parallel compare constants (the SWAR zero-byte test).
const (
	lowBits  = 0x0101010101010101
	low7Bits = 0x7f7f7f7f7f7f7f7f
)

// zeroBytes returns a word with the high bit of each zero byte of x set
// and every other bit clear. Exact: no byte is reported that is not
// zero.
func zeroBytes(x uint64) uint64 {
	return ^((x&low7Bits + low7Bits) | x | low7Bits)
}

// tagOf is the bucket tag of a flow hash: the byte below the shard byte,
// so it is independent of both the shard and the bucket index. 0 marks
// an empty slot, so a zero tag is stored as 1.
func tagOf(h uint64) uint64 {
	t := h >> 48 & 0xff
	if t == 0 {
		t = 1
	}
	return t
}

// flowShard is one independently locked slice of the flow table: its own
// bucket index, record slab, free list, recycle (age) queue, and
// counters. Flows never migrate between shards — the shard is a pure
// function of the flow hash — so two packets of one flow always contend
// on the same shard (and, with hash steering, on the same worker).
type flowShard struct {
	mu    sync.RWMutex
	index []flowBucket
	mask  uint64 // len(index)-1

	id        uint32 // the shard's index in the table
	shardBits uint   // log2 of the table's shard count
	gates     int    // gate slots per record

	pages    []*recPage
	free     uint32 // free-list head (noRec: empty)
	nAlloc   int
	nextGrow int
	maxAlloc int
	oldest   uint32
	newest   uint32
	live     int

	// hits and misses are atomics so the fast-path Lookup can count them
	// under the read lock; the remaining counters only move under the
	// write lock.
	hits   atomic.Uint64
	misses atomic.Uint64
	stats  FlowStats
}

// FlowTable is the hash-based flow cache. The flow hash covers the five
// header fields <src, dst, proto, sport, dport> (pkt.FlowHash); its top
// byte picks a shard, the next byte is the bucket tag, and the low bits
// the home bucket of the shard's open-addressed index. Records come from
// per-shard slabs that grow exponentially up to a per-shard cap, after
// which the shard's oldest records are recycled.
type FlowTable struct {
	shards    []*flowShard
	shardMask uint64

	// Registry-owned telemetry cell (SetTelemetry, assembly time): keys
	// compared per lookup, which has no FlowStats counter. Shared by
	// every shard — the cell is itself internally sharded. Nil when
	// telemetry is off; Observe on a nil cell is a no-op.
	telKeys *telemetry.Histogram
}

// NewFlowTable builds a flow table with the given initial and maximum
// record counts, the number of gate slots per record, and the default
// shard count.
func NewFlowTable(initial, max, gates int) *FlowTable {
	return NewFlowTableSharded(initial, max, gates, 0)
}

// NewFlowTableSharded builds a flow table with an explicit shard count
// (rounded up to a power of two, capped at 256; 0 selects the default).
// The initial and maximum counts are table-wide and divided among the
// shards. A single-shard table has exactly the original table's global
// recycling semantics; with more shards, recycling and growth caps apply
// per shard.
func NewFlowTableSharded(initial, max, gates, shards int) *FlowTable {
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
	perInitial := (initial + ns - 1) / ns
	perMax := (max + ns - 1) / ns
	if perMax < perInitial {
		perMax = perInitial
	}
	t := &FlowTable{
		shards:    make([]*flowShard, ns),
		shardMask: uint64(ns - 1),
	}
	for i := range t.shards {
		sh := &flowShard{
			id:        uint32(i),
			shardBits: uint(bits.TrailingZeros(uint(ns))),
			gates:     gates,
			free:      noRec,
			oldest:    noRec,
			newest:    noRec,
			nextGrow:  perInitial,
			maxAlloc:  perMax,
		}
		sh.grow(perInitial)
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

// shardFor selects the shard from the hash's top byte. Receive steers
// packets to the workers' RX rings by the same byte (pkt.SteerWorker),
// so with a power-of-two worker count no two workers ever contend on
// one shard.
//
//eisr:fastpath
func (t *FlowTable) shardFor(h uint64) *flowShard {
	return t.shards[(h>>56)&t.shardMask]
}

// rec returns the record at slab index i.
//
//eisr:fastpath
func (sh *flowShard) rec(i uint32) *FlowRecord {
	return &sh.pages[i>>pageShift][i&(pageSize-1)]
}

// grow adds up to count records (never past the shard's cap) to the
// slab and the free list, allocating the pages they need in one piece,
// and rebuilds the index at its new size once the records outgrow it.
// Called at construction and with the shard's write lock held.
func (sh *flowShard) grow(count int) {
	count = min(count, sh.maxAlloc-sh.nAlloc)
	if count <= 0 {
		return
	}
	first, end := sh.nAlloc, sh.nAlloc+count
	if need := (end+pageSize-1)>>pageShift - len(sh.pages); need > 0 {
		chunk := make([]recPage, need)
		for i := range chunk {
			for j := range chunk[i] {
				chunk[i][j].slot = uint32(len(sh.pages)<<pageShift|j)<<sh.shardBits | sh.id
			}
			sh.pages = append(sh.pages, &chunk[i])
		}
	}
	// Push in reverse so the free list hands out the lowest index first.
	for i := end - 1; i >= first; i-- {
		sh.rec(uint32(i)).newer = sh.free
		sh.free = uint32(i)
	}
	sh.nAlloc = end
	if n := pow2((sh.nAlloc*slotsPerRecord + FlowBucketSlots - 1) / FlowBucketSlots); n > len(sh.index) {
		sh.rehash(n)
	}
}

// rehash replaces the index with n empty buckets and places every live
// record in it again. Write lock held.
func (sh *flowShard) rehash(n int) {
	sh.index = make([]flowBucket, n)
	sh.mask = uint64(n - 1)
	for i := sh.oldest; i != noRec; i = sh.rec(i).newer {
		sh.place(sh.rec(i).hash, i)
	}
}

// find returns the slab index of k's record (noRec when absent) and the
// number of keys it compared. Table 2 accounting: one access per bucket
// line read and one per key compared. Any shard lock held.
//
//eisr:fastpath
func (sh *flowShard) find(k *pkt.Key, h uint64, c *cycles.Counter) (uint32, uint64) {
	want := tagOf(h) * lowBits
	var keys uint64
	for b := h & sh.mask; ; b = (b + 1) & sh.mask {
		bk := &sh.index[b]
		c.Access(1)
		for m := zeroBytes(bk.tags ^ want); m != 0; m &= m - 1 {
			i := bk.idx[bits.TrailingZeros64(m)>>3&(FlowBucketSlots-1)]
			c.Access(1)
			keys++
			if sh.rec(i).Key == *k {
				return i, keys
			}
		}
		if bk.overflow == 0 {
			return noRec, keys
		}
	}
}

// place puts record i, whose flow hash is h, in the first free slot
// from its home bucket on, counting the overflow on every full bucket it
// passes. Write lock held.
func (sh *flowShard) place(h uint64, i uint32) {
	tag := tagOf(h)
	for b := h & sh.mask; ; b = (b + 1) & sh.mask {
		bk := &sh.index[b]
		if m := zeroBytes(bk.tags); m != 0 {
			s := bits.TrailingZeros64(m) >> 3
			bk.tags |= tag << (s * 8)
			bk.idx[s&(FlowBucketSlots-1)] = i
			return
		}
		bk.overflow++
	}
}

// unplace clears record i's slot, undoing place: only the buckets
// between its home and its slot are read, and in the common case that
// is the one home bucket. Write lock held.
func (sh *flowShard) unplace(h uint64, i uint32) {
	tag := tagOf(h)
	for b := h & sh.mask; ; b = (b + 1) & sh.mask {
		bk := &sh.index[b]
		for m := zeroBytes(bk.tags ^ tag*lowBits); m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m) >> 3
			if bk.idx[s&(FlowBucketSlots-1)] == i {
				bk.tags &^= 0xff << (s * 8)
				return
			}
		}
		bk.overflow--
	}
}

// Lookup finds the record for a fully specified six-tuple. The counter is
// charged one function-pointer load (the "index hash" row of Table 2),
// one memory access per bucket line read and one per key compared. Hits
// take only the shard's read lock, so concurrent per-packet lookups
// never serialize on each other; the last-use stamp and the hit/miss
// counters are atomics for the same reason.
//
//eisr:fastpath
func (t *FlowTable) Lookup(k pkt.Key, now int64, c *cycles.Counter) *FlowRecord {
	r, _ := t.LookupGen(k, now, c)
	return r
}

// LookupGen is Lookup returning the record's generation as well,
// captured under the shard lock so the caller can later detect that the
// record was recycled for a different flow (FilterIfCurrent).
//
//eisr:fastpath
func (t *FlowTable) LookupGen(k pkt.Key, now int64, c *cycles.Counter) (*FlowRecord, uint64) {
	return t.lookup(&k, pkt.FlowHash(k), now, c)
}

// lookup is LookupGen for a key whose flow hash is already known.
//
//eisr:fastpath
func (t *FlowTable) lookup(k *pkt.Key, h uint64, now int64, c *cycles.Counter) (*FlowRecord, uint64) {
	c.FnPointer()
	sh := t.shardFor(h)
	sh.mu.RLock()
	i, keys := sh.find(k, h, c)
	if i == noRec {
		sh.mu.RUnlock()
		sh.misses.Add(1)
		t.telKeys.Observe(keys)
		return nil, 0
	}
	r := sh.rec(i)
	r.touch(now)
	gen := r.gen.Load()
	sh.mu.RUnlock()
	sh.hits.Add(1)
	t.telKeys.Observe(keys)
	return r, gen
}

// Probe reports what a lookup of k reads — bucket lines and keys
// compared — without counting a hit or a miss or stamping the record:
// a view of the table's collision behaviour for experiments.
func (t *FlowTable) Probe(k pkt.Key) (lines, keys int) {
	h := pkt.FlowHash(k)
	sh := t.shardFor(h)
	var c cycles.Counter
	sh.mu.RLock()
	_, n := sh.find(&k, h, &c)
	sh.mu.RUnlock()
	return int(c.Mem - n), int(n)
}

// Insert creates (or refreshes) the record for a six-tuple, taking a
// record from the shard's free list, growing the slab exponentially if
// exhausted, or recycling the shard's oldest live record once the
// allocation cap is reached. filters, one per gate in gate order (a
// shorter slice leaves the remaining gates unbound), become a new
// record's gate slots under the shard lock, so a record can never be
// observed half-filled or recycled between creation and fill. A key
// that is already live keeps its binds and only has its last use
// stamped: the first classification of a flow wins, and a filter change
// flushes the flows it affects anyway.
func (t *FlowTable) Insert(k pkt.Key, now int64, filters []*FilterRecord) *FlowRecord {
	r, _ := t.InsertGen(k, now, filters)
	return r
}

// InsertGen is Insert returning the record's generation, captured under
// the shard lock (see LookupGen).
func (t *FlowTable) InsertGen(k pkt.Key, now int64, filters []*FilterRecord) (*FlowRecord, uint64) {
	return t.insert(k, pkt.FlowHash(k), now, filters)
}

// insert is InsertGen for a key whose flow hash is already known.
func (t *FlowTable) insert(k pkt.Key, h uint64, now int64, filters []*FilterRecord) (*FlowRecord, uint64) {
	sh := t.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, _ := sh.find(&k, h, nil); i != noRec {
		r := sh.rec(i)
		r.touch(now)
		return r, r.gen.Load()
	}
	// A recycled record had its generation bumped in takeRecord, and a
	// free one when it was removed, so writing the new flow's binds over
	// the old flow's is safe: a FIX holder of the old flow fails its
	// generation check before it could read them.
	i := sh.takeRecord()
	r := sh.rec(i)
	r.Key, r.hash = k, h
	r.touch(now)
	for g := range r.binds {
		fr := &unbound
		if g < len(filters) && filters[g] != nil {
			fr = filters[g]
		}
		r.binds[g].Store(fr)
	}
	sh.place(h, i)
	sh.pushNewest(i)
	sh.live++
	sh.stats.Inserts++
	return r, r.gen.Load()
}

// takeRecord pops the shard's free list, growing or, at the cap,
// recycling the oldest live record. Called with the shard's write lock
// held; the shard always has at least one record, free or live.
func (sh *flowShard) takeRecord() uint32 {
	if sh.free == noRec && sh.nAlloc < sh.maxAlloc {
		grow := sh.nextGrow
		sh.nextGrow *= 2
		sh.grow(grow)
	}
	if i := sh.free; i != noRec {
		r := sh.rec(i)
		sh.free = r.newer
		if r.binds == nil {
			sh.bindRecords(i &^ (bindGroup - 1))
		}
		return i
	}
	i := sh.oldest
	sh.evictLocked(i)
	sh.stats.Recycled++
	return i
}

// bindGroup is how many records share one allocation of gate slots.
const bindGroup = 16

// bindRecords allocates the gate slots of the bindGroup records from
// slab index first, the first time one of them takes a flow: a table
// sized for many flows but holding few allocates few slots. Write lock
// held.
func (sh *flowShard) bindRecords(first uint32) {
	binds := make([]atomic.Pointer[FilterRecord], bindGroup*sh.gates)
	for j := range uint32(bindGroup) {
		g := int(j) * sh.gates
		sh.rec(first + j).binds = binds[g : g+sh.gates : g+sh.gates]
	}
}

// Remove deletes the record for a key, reporting whether it was present.
func (t *FlowTable) Remove(k pkt.Key) bool {
	h := pkt.FlowHash(k)
	sh := t.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, _ := sh.find(&k, h, nil)
	if i == noRec {
		return false
	}
	sh.removeLocked(i)
	return true
}

// PurgeIdle removes records idle since before the deadline, a
// pkt.Nanotime reading (§3.2: "if a cached flow remains idle for an
// extended period, its cached entry may be removed"). Shards are purged
// one at a time — the janitor never holds more than one shard lock. It
// returns the number purged.
func (t *FlowTable) PurgeIdle(before int64) int {
	return t.FlushWhere(func(r *FlowRecord) bool { return r.LastUse() < before })
}

// FlushWhere removes every record for which pred returns true, oldest
// first — used when instances are freed or filters removed, so no stale
// instance pointers survive in the cache. pred runs under the shard's
// lock, one shard at a time. It returns the number removed.
func (t *FlowTable) FlushWhere(pred func(*FlowRecord) bool) int {
	n := 0
	for _, sh := range t.shards {
		sh.mu.Lock()
		for i := sh.oldest; i != noRec; {
			r := sh.rec(i)
			next := r.newer
			if pred(r) {
				sh.removeLocked(i)
				n++
			}
			i = next
		}
		sh.mu.Unlock()
	}
	return n
}

// evictLocked takes live record i out of the index and the shard's age
// queue and bumps its generation, so every FIX to it goes stale and
// every plugin's per-flow state for it is reset when the slot's next
// flow claims it (sched.Slab). That is all an eviction does: no plugin
// is told. Write lock held.
func (sh *flowShard) evictLocked(i uint32) {
	r := sh.rec(i)
	sh.unplace(r.hash, i)
	sh.popAge(r)
	sh.live--
	r.gen.Add(1)
}

// removeLocked evicts live record i for good: it counts the removal,
// clears the gate slots — so a record on the free list pins no filter
// and no plugin instance — and returns the record to the shard's free
// list.
func (sh *flowShard) removeLocked(i uint32) {
	sh.evictLocked(i)
	sh.stats.Removed++
	r := sh.rec(i)
	for g := range r.binds {
		r.binds[g].Store(nil)
	}
	r.newer = sh.free
	sh.free = i
}

// pushNewest appends record i to the shard's age queue.
func (sh *flowShard) pushNewest(i uint32) {
	r := sh.rec(i)
	r.older, r.newer = sh.newest, noRec
	if sh.newest != noRec {
		sh.rec(sh.newest).newer = i
	} else {
		sh.oldest = i
	}
	sh.newest = i
}

// popAge unlinks r from the shard's age queue.
func (sh *flowShard) popAge(r *FlowRecord) {
	if r.older != noRec {
		sh.rec(r.older).newer = r.newer
	} else {
		sh.oldest = r.newer
	}
	if r.newer != noRec {
		sh.rec(r.newer).older = r.older
	} else {
		sh.newest = r.older
	}
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

// FlowAt returns the key of the flow that holds a flow slot (the Slot of
// one of this table's records) at generation gen, and false once that
// flow has left the table (evicted, recycled, flushed). Plugins use it
// to list the flows their per-flow state belongs to.
func (t *FlowTable) FlowAt(slot uint32, gen uint64) (pkt.Key, bool) {
	sh := t.shards[uint64(slot)&t.shardMask]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.rec(slot >> sh.shardBits)
	return r.Key, r.gen.Load() == gen
}
