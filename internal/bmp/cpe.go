package bmp

import (
	"cmp"
	"maps"
	"math/bits"
	"reflect"
	"slices"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pkt"
)

// CPE is controlled prefix expansion [Srinivasan & Varghese,
// SIGMETRICS'98], which the paper names as the state-of-the-art BMP to
// plug into the classifier, laid out as a pointer-free,
// popcount-compressed multibit trie for IPv4 in the style of Poptrie
// [Asai & Ohara, SIGCOMM'15]. IPv6 goes to an embedded BSPL.
//
// Layout. The top 14 address bits index a directory of uint32 words;
// the rest are consumed 6 bits per node, so 14+6+6+6 = 32 and a lookup
// visits the directory and at most three nodes, charging one memory
// access per level. A directory word is either a leaf (the slot holds
// no prefix longer than 14 bits) or, with its top bit set, the offset of
// the slot's arena in one shared []uint32 pool. An arena holds the
// slot's nodes, then their leaves. A node is 8 words: a 64-bit child
// bitmap, a 64-bit leaf bitmap, the arena offsets of its first child and
// first leaf, and (root node only) the arena's length and the leaf the
// slot inherits from its longest prefix of at most 14 bits. Children sit
// contiguously, so child v is at rank(childbits, v); leaves are
// run-compressed: the leaf bitmap marks where a run of equal leaves
// starts among the positions without a child, so position v's leaf is
// at rank(leafbits, v). A leaf is one word, (value index + 1) << 6 |
// prefix length; 0 means no match, which falls back to the default
// route. The matched prefix is rebuilt from the address and that length,
// and values live once each in a table-wide slice, since a FIB has few
// distinct next hops. There is no pointer below the directory, so the
// collector never scans the trie.
//
// Updates. Insert/Delete and ApplyDelta edit a control-side list of the
// prefixes of each directory slot and mark the slots they touch (a
// prefix of length L < 14 touches 2^(14-L)); the next Lookup, or
// ApplyDelta itself, lays out only the marked slots' arenas afresh at the
// end of the pool and points the directory at them. Published arenas
// and values are never written again: ApplyDelta copies the 64 KB
// directory and only appends to the pool and the value slice, past the
// lengths the receiver reads. When dead pool words outnumber live ones,
// or dead values outnumber live ones, every slot is laid out into fresh
// storage. A table holding nothing longer than /0 has no directory.
type CPE struct {
	// Read by Lookup; immutable once published.
	dir    []uint32 // nil while no IPv4 prefix is longer than /0
	pool   []uint32 // arenas
	vals   []any    // leaf value indexes point here
	def    any      // the IPv4 /0's value
	hasDef bool
	v6     *BSPL // nil until the first IPv6 prefix
	dirty  bool  // Insert/Delete pending; the next Lookup lays out

	n4  int     // installed IPv4 prefixes longer than /0
	ctl *cpeCtl // control side; transfers to the table ApplyDelta derives
}

const (
	cpeDirBits   = 14
	cpeSlots     = 1 << cpeDirBits
	cpeStride    = 6
	cpeNodeWords = 8       // 6 words used; 8 keeps a node inside one cache line
	cpeArena     = 1 << 31 // directory word flag: the rest is a pool offset
	cpeMaxVals   = 1<<25 - 1
	// Dead values and dead pool words tolerated before compaction, so a
	// small table does not compact on every change.
	cpeMinDead      = 64
	cpeMinDeadWords = 1 << 12
)

// cpeRoute is one prefix longer than the directory stride: its
// truncated address and its leaf word.
type cpeRoute struct{ bits, leaf uint32 }

func (r cpeRoute) len() int { return int(r.leaf & 63) }

// cpeCtl is the control-side state: what every slot holds, the value
// reference counts, and layout scratch. Only the newest table of a
// derivation chain uses it.
type cpeCtl struct {
	// slots[s] lists slot s's prefixes longer than 14 bits, sorted by
	// address then length, so a prefix precedes those it covers and the
	// prefixes under one node form a contiguous run.
	slots map[uint32][]cpeRoute
	// short[L][i] is the leaf word of prefix i of length L (1..14).
	short [cpeDirBits + 1][]uint32
	live  int // pool words the directory references

	// dirty lists the slots to lay out, marked flags them, and own
	// flags those whose own prefix list changed, not just the leaf they
	// inherit from a prefix of at most 14 bits.
	marked, own [cpeSlots / 64]uint64
	dirty       []uint32

	index    map[any]uint32 // comparable value -> its index in vals
	refs     []uint32       // prefixes per value
	deadVals int

	nodes, leaves []uint32 // layout scratch
}

// NewCPE returns an empty controlled-prefix-expansion table.
func NewCPE() *CPE { return &CPE{} }

// Name implements Table.
func (t *CPE) Name() string { return string(KindCPE) }

// Len implements Table.
func (t *CPE) Len() int {
	n := t.n4
	if t.hasDef {
		n++
	}
	if t.v6 != nil {
		n += t.v6.Len()
	}
	return n
}

// Insert implements Table.
func (t *CPE) Insert(p pkt.Prefix, v any) {
	p = pkt.PrefixFrom(p.Addr, p.Len)
	switch {
	case p.Addr.IsV6():
		if t.v6 == nil {
			t.v6 = NewBSPL()
		}
		t.v6.Insert(p, v)
	case p.Len == 0:
		t.def, t.hasDef = v, true
	default:
		t.set4(p, v)
	}
	t.dirty = true
}

// Delete implements Table.
func (t *CPE) Delete(p pkt.Prefix) bool {
	p = pkt.PrefixFrom(p.Addr, p.Len)
	var ok bool
	switch {
	case p.Addr.IsV6():
		ok = t.v6 != nil && t.v6.Delete(p)
	case p.Len == 0:
		ok = t.hasDef
		t.def, t.hasDef = nil, false
	default:
		ok = t.del4(p)
	}
	if ok {
		t.dirty = true
	}
	return ok
}

// ApplyDelta implements Incremental. It derives a table that shares the
// receiver's pool and values, lays out only the slots the delta touches,
// and hands IPv6 to the embedded BSPL, rebuilding just that side when
// BSPL cannot apply its part incrementally. ok=false only when the
// receiver has pending Insert/Delete mutations.
func (t *CPE) ApplyDelta(d Delta) (Table, bool) {
	if t.dirty {
		return nil, false
	}
	nt := *t
	var d6 Delta
	for _, a := range d.Adds {
		p := pkt.PrefixFrom(a.Prefix.Addr, a.Prefix.Len)
		switch {
		case p.Addr.IsV6():
			d6.Adds = append(d6.Adds, PrefixVal{Prefix: p, Val: a.Val})
		case p.Len == 0:
			nt.def, nt.hasDef = a.Val, true
		default:
			nt.set4(p, a.Val)
		}
	}
	for _, p := range d.Dels {
		p = pkt.PrefixFrom(p.Addr, p.Len)
		switch {
		case p.Addr.IsV6():
			d6.Dels = append(d6.Dels, p)
		case p.Len == 0:
			nt.def, nt.hasDef = nil, false
		default:
			nt.del4(p)
		}
	}
	if !d6.Empty() {
		nt.v6 = applyV6(t.v6, d6)
	}
	if nt.ctl != nil && len(nt.ctl.dirty) > 0 {
		if nt.dir != nil {
			nt.dir = slices.Clone(nt.dir)
		}
		nt.layout()
	}
	return &nt, true
}

// applyV6 derives the IPv6 side: incrementally when BSPL can, else by
// rebuilding it from a copy of its prefixes.
func applyV6(b *BSPL, d Delta) *BSPL {
	if b != nil {
		if nb, ok := b.ApplyDelta(d); ok {
			return nb.(*BSPL)
		}
	}
	nb := NewBSPL()
	if b != nil {
		nb.store = maps.Clone(b.store)
	}
	for _, a := range d.Adds {
		nb.store[a.Prefix] = a.Val
	}
	for _, p := range d.Dels {
		delete(nb.store, p)
	}
	nb.rebuild()
	return nb
}

// Lookup implements Table. The directory and each node visited cost one
// memory access; a node's leaf word is read with it.
func (t *CPE) Lookup(a pkt.Addr, c *cycles.Counter) (any, pkt.Prefix, bool) {
	if t.dirty {
		t.flush()
	}
	if a.IsV6() {
		if t.v6 == nil {
			return nil, pkt.Prefix{}, false
		}
		return t.v6.Lookup(a, c)
	}
	var w, x uint32
	if t.dir != nil {
		x = a.V4Uint()
		c.Access(1)
		w = t.dir[x>>(32-cpeDirBits)]
		if w&cpeArena != 0 {
			ar := t.pool[w&^cpeArena:]
			n := uint32(0)
			for shift := uint(32 - cpeDirBits - cpeStride); ; shift -= cpeStride {
				c.Access(1)
				nd := ar[n : n+6 : n+6]
				bit := uint64(1) << (x >> shift & 63)
				upto := bit | (bit - 1)
				if vec := uint64(nd[0]) | uint64(nd[1])<<32; vec&bit != 0 {
					n = nd[4] + cpeNodeWords*uint32(bits.OnesCount64(vec&upto)-1)
					continue
				}
				lv := uint64(nd[2]) | uint64(nd[3])<<32
				w = ar[nd[5]+uint32(bits.OnesCount64(lv&upto))-1]
				break
			}
		}
	}
	if w == 0 {
		if !t.hasDef {
			return nil, pkt.Prefix{}, false
		}
		return t.def, pkt.Prefix{}, true
	}
	n := int(w & 63)
	return t.vals[w>>6-1], pkt.Prefix{Addr: pkt.AddrV4(x &^ (^uint32(0) >> n)), Len: n}, true
}

// flush lays out what Insert/Delete changed.
func (t *CPE) flush() {
	if t.ctl != nil && len(t.ctl.dirty) > 0 {
		t.layout()
	}
	if t.v6 != nil && t.v6.dirty {
		t.v6.rebuild()
	}
	t.dirty = false
}

// control returns the control-side state, creating it on first use.
func (t *CPE) control() *cpeCtl {
	if t.ctl == nil {
		t.ctl = &cpeCtl{slots: make(map[uint32][]cpeRoute), index: make(map[any]uint32)}
	}
	return t.ctl
}

// set4 installs IPv4 prefix p (Len 1..32) with value v.
func (t *CPE) set4(p pkt.Prefix, v any) {
	c := t.control()
	x, L := p.Addr.V4Uint(), p.Len
	w := t.leaf(v, L)
	var old uint32
	if L <= cpeDirBits {
		tab := c.shortTable(L)
		i := x >> (32 - L)
		old, tab[i] = tab[i], w
		if old != w {
			c.mark(i<<(cpeDirBits-L), 1<<(cpeDirBits-L), false)
		}
	} else {
		s := x >> (32 - cpeDirBits)
		rs := c.slots[s]
		j, found := slices.BinarySearchFunc(rs, cpeRoute{x, uint32(L)}, cmpRoute)
		if found {
			old, rs[j].leaf = rs[j].leaf, w
		} else {
			c.slots[s] = slices.Insert(rs, j, cpeRoute{x, w})
		}
		if old != w {
			c.mark(s, 1, true)
		}
	}
	if old == 0 {
		t.n4++
	} else {
		c.release(old)
	}
}

// del4 withdraws IPv4 prefix p (Len 1..32), reporting whether it was
// installed.
func (t *CPE) del4(p pkt.Prefix) bool {
	c := t.ctl
	if c == nil {
		return false
	}
	x, L := p.Addr.V4Uint(), p.Len
	var old uint32
	if L <= cpeDirBits {
		tab := c.short[L]
		if tab == nil {
			return false
		}
		i := x >> (32 - L)
		if old, tab[i] = tab[i], 0; old != 0 {
			c.mark(i<<(cpeDirBits-L), 1<<(cpeDirBits-L), false)
		}
	} else {
		s := x >> (32 - cpeDirBits)
		rs := c.slots[s]
		j, found := slices.BinarySearchFunc(rs, cpeRoute{x, uint32(L)}, cmpRoute)
		if !found {
			return false
		}
		old = rs[j].leaf
		if len(rs) == 1 {
			delete(c.slots, s)
		} else {
			c.slots[s] = slices.Delete(rs, j, j+1)
		}
		c.mark(s, 1, true)
	}
	if old == 0 {
		return false
	}
	c.release(old)
	t.n4--
	return true
}

func cmpRoute(a, b cpeRoute) int {
	if c := cmp.Compare(a.bits, b.bits); c != 0 {
		return c
	}
	return a.len() - b.len()
}

// hashable reports whether v can key the value index.
func hashable(v any) bool { return v == nil || reflect.TypeOf(v).Comparable() }

// leaf interns v and returns the leaf word for a prefix of length L
// holding it. Equal comparable values share one index; a value whose
// prefixes all went is revived rather than appended again.
func (t *CPE) leaf(v any, L int) uint32 {
	c := t.ctl
	comparable := hashable(v)
	if comparable {
		if i, ok := c.index[v]; ok {
			if c.refs[i] == 0 {
				c.deadVals--
			}
			c.refs[i]++
			return (i+1)<<6 | uint32(L)
		}
	}
	i := uint32(len(t.vals))
	if i >= cpeMaxVals {
		panic("bmp: CPE holds too many distinct values")
	}
	t.vals = append(t.vals, v)
	c.refs = append(c.refs, 1)
	if comparable {
		c.index[v] = i
	}
	return (i+1)<<6 | uint32(L)
}

func (c *cpeCtl) release(w uint32) {
	i := w>>6 - 1
	if c.refs[i]--; c.refs[i] == 0 {
		c.deadVals++
	}
}

func (c *cpeCtl) shortTable(L int) []uint32 {
	if c.short[L] == nil {
		c.short[L] = make([]uint32, 1<<L)
	}
	return c.short[L]
}

// mark queues slots [s, s+n) for layout; own says their prefix lists
// changed.
func (c *cpeCtl) mark(s, n uint32, own bool) {
	for ; n > 0; s, n = s+1, n-1 {
		bit := uint64(1) << (s % 64)
		if c.marked[s/64]&bit == 0 {
			c.marked[s/64] |= bit
			c.dirty = append(c.dirty, s)
		}
		if own {
			c.own[s/64] |= bit
		}
	}
}

// inherited is the leaf of slot s's longest prefix of at most 14 bits.
func (c *cpeCtl) inherited(s uint32) uint32 {
	for L := cpeDirBits; L > 0; L-- {
		if tab := c.short[L]; tab != nil {
			if w := tab[s>>(cpeDirBits-L)]; w != 0 {
				return w
			}
		}
	}
	return 0
}

// layout brings the directory up to date with the marked slots. It
// lays out every slot into fresh storage when there is none yet or when
// dead values have come to outnumber live ones, and copies the live
// arenas into a fresh pool when dead words outnumber live ones. t.dir
// must not be published.
func (t *CPE) layout() {
	c := t.ctl
	switch {
	case t.n4 == 0:
		t.dir, t.pool, c.live = nil, nil, 0
	case t.dir == nil:
		t.relayout()
	case c.deadVals >= cpeMinDead && 2*c.deadVals > len(t.vals):
		t.compactVals()
		t.relayout()
	default:
		for _, s := range c.dirty {
			t.layoutSlot(s, c.own[s/64]&(1<<(s%64)) != 0)
		}
		if dead := len(t.pool) - c.live; dead > c.live && dead >= cpeMinDeadWords {
			t.compactPool()
		}
	}
	c.marked, c.own = [cpeSlots / 64]uint64{}, [cpeSlots / 64]uint64{}
	c.dirty = c.dirty[:0]
}

// relayout lays out every slot into a fresh directory and pool.
func (t *CPE) relayout() {
	c := t.ctl
	t.dir = make([]uint32, cpeSlots)
	t.pool = make([]uint32, 0, c.live+c.live/4)
	c.live = 0
	for s := range uint32(cpeSlots) {
		t.layoutSlot(s, true)
	}
}

// compactPool copies the live arenas into a fresh pool.
func (t *CPE) compactPool() {
	pool := make([]uint32, 0, t.ctl.live+t.ctl.live/2)
	for s, w := range t.dir {
		if w&cpeArena != 0 {
			off := w &^ cpeArena
			t.dir[s] = cpeArena | uint32(len(pool))
			pool = append(pool, t.pool[off:off+t.pool[off+6]]...)
		}
	}
	t.pool = pool
}

// layoutSlot lays out slot s: a leaf in the directory when it holds no
// prefix longer than 14 bits, else a fresh arena at the end of the pool.
// When only the inherited leaf changed (own is false), the old arena is
// copied with that leaf substituted: a leaf equal to the old inherited
// word can only have come from it, since the slot's own prefixes are
// longer than 14 bits.
func (t *CPE) layoutSlot(s uint32, own bool) {
	c := t.ctl
	inh := c.inherited(s)
	rs := c.slots[s]
	var old []uint32
	if w := t.dir[s]; w&cpeArena != 0 {
		off := w &^ cpeArena
		old = t.pool[off : off+t.pool[off+6]]
		if !own && len(rs) > 0 && old[7] == inh {
			return
		}
		c.live -= len(old)
	}
	if len(rs) == 0 {
		t.dir[s] = inh
		return
	}
	off := len(t.pool)
	if off >= cpeArena {
		panic("bmp: CPE pool exceeds 2^31 words")
	}
	if own || old == nil {
		t.pool = append(t.pool, c.arena(rs, inh)...)
	} else {
		t.pool = append(t.pool, old...)
		ar := t.pool[off:]
		for i := ar[5]; i < uint32(len(ar)); i++ {
			if ar[i] == old[7] {
				ar[i] = inh
			}
		}
		ar[7] = inh
	}
	t.dir[s] = cpeArena | uint32(off)
	c.live += len(t.pool) - off
}

// arena lays out one slot's nodes and leaves, padded to whole nodes so
// every arena, and so every node, starts 32-byte aligned. The result is
// scratch, valid until the next call.
func (c *cpeCtl) arena(rs []cpeRoute, inh uint32) []uint32 {
	c.nodes = append(c.nodes[:0], make([]uint32, cpeNodeWords)...)
	c.leaves = c.leaves[:0]
	c.node(0, rs, 32-cpeDirBits-cpeStride, inh)
	nw := uint32(len(c.nodes))
	for i := 5; i < len(c.nodes); i += cpeNodeWords {
		c.nodes[i] += nw // leaf offsets were relative to the leaf area
	}
	ar := append(c.nodes, c.leaves...)
	for len(ar)%cpeNodeWords != 0 {
		ar = append(ar, 0)
	}
	ar[6], ar[7] = uint32(len(ar)), inh
	c.nodes = ar
	return ar
}

// node lays out the node at word at, covering the 6 address bits below
// shift, over the routes under it (address order), where inh is the leaf
// of the longest prefix above it.
func (c *cpeCtl) node(at int, rs []cpeRoute, shift uint, inh uint32) {
	end := 32 - int(shift) // prefix length fully resolved by this node
	var leaf [1 << cpeStride]uint32
	for i := range leaf {
		leaf[i] = inh
	}
	var vec uint64
	for _, r := range rs {
		v := r.bits >> shift & 63
		if L := r.len(); L <= end {
			// Address order puts a prefix before those it covers, so
			// longer prefixes overwrite shorter ones.
			span := uint32(1) << (end - L)
			for i := v; i < v+span; i++ {
				leaf[i] = r.leaf
			}
		} else {
			vec |= 1 << v
		}
	}
	base0 := len(c.nodes)
	c.nodes = append(c.nodes, make([]uint32, cpeNodeWords*bits.OnesCount64(vec))...)
	base1 := len(c.leaves)
	var lvec uint64
	prev := ^uint32(0) // no leaf word: its top bit is the arena flag
	for m := ^vec; m != 0; m &= m - 1 {
		if v := bits.TrailingZeros64(m); leaf[v] != prev {
			lvec |= 1 << v
			prev = leaf[v]
			c.leaves = append(c.leaves, prev)
		}
	}
	nd := c.nodes[at : at+6]
	nd[0], nd[1] = uint32(vec), uint32(vec>>32)
	nd[2], nd[3] = uint32(lvec), uint32(lvec>>32)
	nd[4], nd[5] = uint32(base0), uint32(base1)
	// The routes under each child form one run, in child order.
	child := base0
	for i := 0; i < len(rs); {
		if rs[i].len() <= end {
			i++
			continue
		}
		v := rs[i].bits >> shift & 63
		j := i + 1
		for j < len(rs) && rs[j].bits>>shift&63 == v {
			j++
		}
		c.node(child, rs[i:j], shift-cpeStride, leaf[v])
		child += cpeNodeWords
		i = j
	}
}

// compactVals moves the live values into a fresh slice and renumbers
// every leaf word; the caller lays out every slot afterwards.
func (t *CPE) compactVals() {
	c := t.ctl
	remap := make([]uint32, len(t.vals)) // old index -> new index + 1
	vals := make([]any, 0, len(t.vals)-c.deadVals)
	refs := make([]uint32, 0, cap(vals))
	c.index = make(map[any]uint32, cap(vals))
	for i, v := range t.vals {
		if c.refs[i] == 0 {
			continue
		}
		if hashable(v) {
			c.index[v] = uint32(len(vals))
		}
		vals = append(vals, v)
		refs = append(refs, c.refs[i])
		remap[i] = uint32(len(vals))
	}
	re := func(w uint32) uint32 { return remap[w>>6-1]<<6 | w&63 }
	for _, tab := range c.short {
		for i, w := range tab {
			if w != 0 {
				tab[i] = re(w)
			}
		}
	}
	for _, rs := range c.slots {
		for i := range rs {
			rs[i].leaf = re(rs[i].leaf)
		}
	}
	t.vals, c.refs, c.deadVals = vals, refs, 0
}
