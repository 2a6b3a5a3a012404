package bmp

import (
	"sort"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pkt"
)

// BSPL implements binary search on prefix lengths [Waldvogel et al.,
// SIGCOMM'97] — the fast BMP plugin of the paper, and the algorithm whose
// worst case produces Table 2's access accounting: O(log W) hash probes
// per lookup (5 for IPv4, 7 for IPv6 in the paper's arithmetic), each
// charged as one memory access, independent of the number of prefixes.
//
// One hash table per *distinct installed prefix length* holds the
// truncated prefixes of that length plus markers: artificial entries left
// on the binary search path of longer prefixes so the search knows to
// continue toward them. Every entry precomputes its best matching prefix
// so a failed continuation never needs to backtrack. The binary search
// runs over the sorted array of distinct lengths, so its worst case is
// ceil(log2(D+1)) probes for D distinct lengths — at most 6 for IPv4
// (D = 32) and 8 for IPv6, and exactly the paper's 5/7 whenever D is 31-
// or 127-wide or less, which any realistic filter population satisfies.
//
// An entry is 32 bytes: its key, the steering bit, and one pointer to
// the immutable route record (prefix and value) of its precomputed BMP.
// Every entry that shares a BMP shares the record, and the reference
// PATRICIA stores the same records as its values, so a lookup touches
// one entry per probe and resolves the value once, at the end.
//
// Mutations come in two flavors. Insert/Delete are cheap bookkeeping that
// mark the structure dirty for a lazy full rebuild on the next lookup —
// the original control-path design. ApplyDelta is the incremental path:
// it derives a new BSPL whose per-length tables are persistent
// (copy-on-write at chunk and group granularity, see ptable) and repairs
// markers and precomputed BMPs only along the paths that can change
// (applyAdd), falling back (ok=false) when the delta would change the
// set of distinct lengths — which would invalidate every entry's
// binary-search path. Deletes never shrink the length set (emptied
// tables are kept), so churn within an established length population
// stays incremental.
type BSPL struct {
	store map[pkt.Prefix]any
	dirty bool

	// ref mirrors the real prefixes (Len > 0) in a PATRICIA whose values
	// are their *bsplRoute records, and answers the neighborhood queries
	// incremental maintenance needs: best matching prefix up to a length,
	// longer-prefix existence, and the frontier under a prefix.
	// Maintained copy-on-write by ApplyDelta so the receiver's ref stays
	// intact.
	ref *Patricia

	fam [2]bsplFamily // 0: IPv4, 1: IPv6
}

type bsplFamily struct {
	// lens is the sorted set of distinct installed prefix lengths
	// (excluding 0); tables[i] is the hash table for lens[i].
	lens   []int
	tables []*ptable
	// marklens[i] is the set of prefix lengths whose binary-search path
	// drops a marker in tables[i] (lengths longer than lens[i] that
	// visit position i). Derived from lens alone, shared immutably
	// across incremental derivations, used for exact marker liveness.
	marklens [][]int
	// def is the zero-length prefix's route, if any.
	def *bsplRoute
}

// bsplRoute is one installed prefix and its value. Records are
// immutable: a re-add builds a new one, so a published entry's BMP never
// changes under a reader.
type bsplRoute struct {
	prefix pkt.Prefix
	val    any
}

// computeMarkLens derives, for each position in lens, which prefix
// lengths leave markers there: length L' visits position i on its
// binary-search path with L' > lens[i].
func computeMarkLens(lens []int) [][]int {
	m := make([][]int, len(lens))
	for _, L := range lens {
		lo, hi := 0, len(lens)-1
		for lo <= hi {
			mid := (lo + hi) / 2
			switch {
			case L > lens[mid]:
				m[mid] = append(m[mid], L)
				lo = mid + 1
			case L == lens[mid]:
				lo = hi + 1
			default:
				hi = mid - 1
			}
		}
	}
	return m
}

func lenIn(set []int, l int) bool {
	for _, x := range set {
		if x == l {
			return true
		}
	}
	return false
}

type bsplEntry struct {
	key pkt.Addr
	// hasLonger directs the binary search upward: some real prefix
	// longer than this entry's length extends this bit string.
	hasLonger bool
	// bmp is the longest real prefix matching this entry's bit string,
	// including the entry itself when it is a real prefix; nil when none
	// does.
	bmp *bsplRoute
}

// NewBSPL returns an empty binary-search-on-prefix-lengths table.
func NewBSPL() *BSPL {
	return &BSPL{store: make(map[pkt.Prefix]any), ref: NewPatricia()}
}

// Name implements Table.
func (t *BSPL) Name() string { return string(KindBSPL) }

// Len implements Table.
func (t *BSPL) Len() int { return len(t.store) }

// Insert implements Table.
func (t *BSPL) Insert(p pkt.Prefix, v any) {
	p = pkt.PrefixFrom(p.Addr, p.Len)
	t.store[p] = v
	t.dirty = true
}

// Delete implements Table.
func (t *BSPL) Delete(p pkt.Prefix) bool {
	p = pkt.PrefixFrom(p.Addr, p.Len)
	if _, ok := t.store[p]; !ok {
		return false
	}
	delete(t.store, p)
	t.dirty = true
	return true
}

func famIndex(v6 bool) int {
	if v6 {
		return 1
	}
	return 0
}

// bmpOf returns the longest route in ref of length at most L matching
// key, or nil.
func bmpOf(ref *Patricia, key pkt.Addr, L int) *bsplRoute {
	v, _, ok := ref.lookupMax(key, L, nil)
	if !ok {
		return nil
	}
	return v.(*bsplRoute)
}

// lenIndex returns the position of L in f.lens, or -1.
func (f *bsplFamily) lenIndex(L int) int {
	i := sort.SearchInts(f.lens, L)
	if i < len(f.lens) && f.lens[i] == L {
		return i
	}
	return -1
}

// rebuild constructs the per-length hash tables, markers, and precomputed
// marker BMPs from the prefix store.
func (t *BSPL) rebuild() {
	t.fam[0] = bsplFamily{}
	t.fam[1] = bsplFamily{}

	// A PATRICIA over the real prefixes answers "best matching prefix of
	// this marker's bit string" queries during the build — and is kept
	// afterwards as the incremental path's reference structure.
	ref := NewPatricia()
	lenCount := [2]map[int]int{{}, {}}
	for p, v := range t.store {
		f := &t.fam[famIndex(p.Addr.IsV6())]
		if p.Len == 0 {
			f.def = &bsplRoute{prefix: p, val: v}
			continue
		}
		lenCount[famIndex(p.Addr.IsV6())][p.Len]++
		ref.Insert(p, &bsplRoute{prefix: p, val: v})
	}
	for fi := range t.fam {
		f := &t.fam[fi]
		for l := range lenCount[fi] {
			f.lens = append(f.lens, l)
		}
		sort.Ints(f.lens)
		f.marklens = computeMarkLens(f.lens)
		f.tables = make([]*ptable, len(f.lens))
		for i, l := range f.lens {
			f.tables[i] = newPtable(lenCount[fi][l])
		}
	}

	// Walk each prefix's binary search path over the length array,
	// dropping markers where the search must be steered upward.
	for p := range t.store {
		if p.Len == 0 {
			continue
		}
		f := &t.fam[famIndex(p.Addr.IsV6())]
		lo, hi := 0, len(f.lens)-1
		for lo <= hi {
			mid := (lo + hi) / 2
			L := f.lens[mid]
			switch {
			case p.Len > L:
				e, _ := f.tables[mid].upd(p.Addr.Truncate(L))
				e.hasLonger = true
				lo = mid + 1
			case p.Len == L:
				f.tables[mid].upd(p.Addr)
				lo = hi + 1 // done
			default:
				hi = mid - 1
			}
		}
	}

	// Precompute every entry's BMP: the longest real prefix of length at
	// most the entry's level that matches its bit string.
	for fi := range t.fam {
		f := &t.fam[fi]
		for i, tab := range f.tables {
			L := f.lens[i]
			tab.each(func(e *bsplEntry) { e.bmp = bmpOf(ref, e.key, L) })
		}
	}
	t.ref = ref
	t.dirty = false
}

// ApplyDelta implements Incremental. It derives a new BSPL sharing all
// untouched hash-table chunks and groups with the receiver and repairs
// only the binary-search paths of the mutated prefixes plus the short
// path segments below them that can change (applyAdd), so a delta's
// cost tracks how much of the prefix space it disturbs, not the table
// size.
//
// ok=false (receiver untouched, caller rebuilds) when the receiver has
// pending lazy mutations, or when an added prefix introduces a length
// with no existing table — a new length changes every entry's
// binary-search path, which is exactly a rebuild.
//
// The receiver stays valid for concurrent Lookup, but its store and ref
// bookkeeping transfer to the result: do not mutate the receiver after a
// successful ApplyDelta.
func (t *BSPL) ApplyDelta(d Delta) (Table, bool) {
	if t.dirty {
		return nil, false
	}
	for _, a := range d.Adds {
		p := pkt.PrefixFrom(a.Prefix.Addr, a.Prefix.Len)
		if p.Len == 0 {
			continue
		}
		if t.fam[famIndex(p.Addr.IsV6())].lenIndex(p.Len) < 0 {
			return nil, false
		}
	}
	// Deletes can only empty a table, never remove a length (emptied
	// tables are kept), so they are always incremental.

	nt := &BSPL{
		store: t.store, // ownership transfers; see doc comment
		ref:   &Patricia{root4: t.ref.root4, root6: t.ref.root6, n: t.ref.n},
	}
	for fi := range t.fam {
		src := &t.fam[fi]
		dst := &nt.fam[fi]
		dst.lens = src.lens
		dst.marklens = src.marklens
		dst.tables = append([]*ptable(nil), src.tables...)
		dst.def = src.def
	}
	owned := [2][]bool{
		make([]bool, len(nt.fam[0].tables)),
		make([]bool, len(nt.fam[1].tables)),
	}
	tab := func(fi, i int) *ptable {
		f := &nt.fam[fi]
		if !owned[fi][i] {
			f.tables[i] = f.tables[i].clone()
			owned[fi][i] = true
		}
		return f.tables[i]
	}
	for _, a := range d.Adds {
		nt.applyAdd(pkt.PrefixFrom(a.Prefix.Addr, a.Prefix.Len), a.Val, tab)
	}
	for _, p := range d.Dels {
		nt.applyDel(pkt.PrefixFrom(p.Addr, p.Len), tab)
	}
	return nt, true
}

// replayPath walks p's binary search path over f.lens, calling fn with
// each visited (table index, key) pair — markers below p.Len, the entry
// at p.Len itself last.
func replayPath(f *bsplFamily, p pkt.Prefix, fn func(mid int, L int, key pkt.Addr)) {
	lo, hi := 0, len(f.lens)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		L := f.lens[mid]
		switch {
		case p.Len > L:
			fn(mid, L, p.Addr.Truncate(L))
			lo = mid + 1
		case p.Len == L:
			fn(mid, L, p.Addr)
			lo = hi + 1 // done
		default:
			hi = mid - 1
		}
	}
}

// applyAdd installs p -> v. p's own path gets its markers and its
// entry; then entries below p whose best match p now is adopt its
// record. Those entries lie only on the frontier's paths — the
// shortest stored prefixes q strictly under p — at the levels in
// (p.Len, q.Len):
//
//   - an entry at a level of at least q.Len whose bits extend q already
//     has a BMP at least as long as q, longer than p;
//   - every entry below q.Len that a longer prefix r under q visits is
//     also on q's own path, because the two binary searches take the
//     same turns until they reach a level of at least q.Len.
//
// So a change to a short prefix replays one path segment per frontier
// prefix instead of the path of every prefix beneath it.
func (t *BSPL) applyAdd(p pkt.Prefix, v any, tab func(fi, i int) *ptable) {
	fi := famIndex(p.Addr.IsV6())
	f := &t.fam[fi]
	t.store[p] = v
	rec := &bsplRoute{prefix: p, val: v}
	if p.Len == 0 {
		f.def = rec
		return
	}
	root := t.ref.rootFor(p.Addr.IsV6())
	added := false
	*root = patInsertCOW(*root, p, rec, &added)
	if added {
		t.ref.n++
	}

	// Seed p's own binary-search path: markers steering upward below
	// p.Len, the real entry at p.Len. Fresh markers get their BMP from
	// the reference trie.
	replayPath(f, p, func(mid, L int, key pkt.Addr) {
		e, fresh := tab(fi, mid).upd(key)
		if p.Len > L {
			e.hasLonger = true
			if fresh {
				e.bmp = bmpOf(t.ref, key, L)
			}
		} else {
			// p is now the longest possible BMP at its own level.
			e.bmp = rec
		}
	})

	t.ref.walkFrontier(p, func(q pkt.Prefix) {
		replayPath(f, q, func(mid, L int, key pkt.Addr) {
			if L <= p.Len || L >= q.Len {
				return
			}
			pt := tab(fi, mid)
			if e := pt.get(key); e != nil && e.bmp != nil && e.bmp.prefix.Len > p.Len {
				return
			}
			e, _ := pt.upd(key)
			e.bmp = rec
		})
	})
}

// applyDel withdraws p. Entries whose BMP was p fall back to the next
// shorter match; by applyAdd's argument they lie only on the frontier
// paths at levels in (p.Len, q.Len). Then p's own path drops the
// entries that no longer serve anyone.
func (t *BSPL) applyDel(p pkt.Prefix, tab func(fi, i int) *ptable) {
	fi := famIndex(p.Addr.IsV6())
	f := &t.fam[fi]
	if _, ok := t.store[p]; !ok {
		return
	}
	delete(t.store, p)
	if p.Len == 0 {
		f.def = nil
		return
	}
	root := t.ref.rootFor(p.Addr.IsV6())
	removed := false
	*root = patDeleteCOW(*root, p, &removed)
	if removed {
		t.ref.n--
	}

	t.ref.walkFrontier(p, func(q pkt.Prefix) {
		replayPath(f, q, func(mid, L int, key pkt.Addr) {
			if L <= p.Len || L >= q.Len {
				return
			}
			e := f.tables[mid].get(key)
			if e == nil || e.bmp == nil || e.bmp.prefix != p {
				return
			}
			me, _ := tab(fi, mid).upd(key)
			me.bmp = bmpOf(t.ref, key, L)
		})
	})

	// Walk p's own search path: recompute each touched entry's BMP and
	// steering bit, and drop entries that no longer serve anyone. The
	// liveness rule is exactly the rebuild's: an entry at position mid
	// exists iff it is a real prefix or some installed prefix whose
	// length drops markers at mid (marklens) extends its bits. Keeping
	// this exact — rather than over-approximating with "anything longer
	// exists below" — matters for correctness, not just probe count: a
	// stale marker is unreachable by later adds' neighborhood repair
	// (it sits on no current prefix's search path), so its precomputed
	// BMP would rot and steer lookups past shorter matches.
	replayPath(f, p, func(mid, L int, key pkt.Addr) {
		pt := tab(fi, mid)
		if pt.get(key) == nil {
			return
		}
		_, real := t.store[pkt.PrefixFrom(key, L)]
		marker := t.ref.anyUnder(pkt.PrefixFrom(key, L), func(q pkt.Prefix, _ any) bool {
			return lenIn(f.marklens[mid], q.Len)
		})
		if !real && !marker {
			pt.del(key)
			return
		}
		me, _ := pt.upd(key)
		me.hasLonger = marker
		me.bmp = bmpOf(t.ref, key, L)
	})
}

// Lookup implements Table. Each hash probe costs one memory access; the
// probe count is bounded by ceil(log2(D+1)) for D distinct prefix lengths
// regardless of the number of installed prefixes — the property Table 2
// depends on.
func (t *BSPL) Lookup(a pkt.Addr, c *cycles.Counter) (any, pkt.Prefix, bool) {
	if t.dirty {
		t.rebuild()
	}
	f := &t.fam[famIndex(a.IsV6())]
	best := f.def
	lo, hi := 0, len(f.lens)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		c.Access(1)
		e := f.tables[mid].get(a.Truncate(f.lens[mid]))
		if e == nil {
			hi = mid - 1
			continue
		}
		if e.bmp != nil {
			best = e.bmp
		}
		if !e.hasLonger {
			break
		}
		lo = mid + 1
	}
	if best == nil {
		return nil, pkt.Prefix{}, false
	}
	return best.val, best.prefix, true
}

// WorstCaseProbes returns the paper's Table 2 accounting for the maximum
// number of hash probes per address lookup: log2 of the address width (5
// for IPv4, 7 for IPv6).
func WorstCaseProbes(v6 bool) int {
	if v6 {
		return 7 // log2(128)
	}
	return 5 // log2(32)
}
