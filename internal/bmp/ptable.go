package bmp

import "github.com/routerplugins/eisr/internal/pkt"

// ptable is a persistent hash table from truncated addresses to BSPL
// entries, built for the one-writer/many-reader snapshot regime: readers
// call get on a published table with no synchronization, while the
// single writer derives a new table via clone and mutates only that.
//
// The layout is a small root of chunk pointers over fixed-size chunks
// that hold their groups — the hash buckets, short entry slices — inline,
// so a probe is root → chunk → group's entries with no pointer per
// bucket and no empty-slot checks: every chunk exists from the start.
// Chunks and groups are copy-on-write at generation granularity: clone
// bumps the generation and copies just the root; a mutation copies the
// chunk (128 groups, 4KiB) and the group's entries it lands in the first
// time this generation touches them. A delta that lands in k buckets
// therefore copies O(k) chunks and groups plus one root of n/128
// pointers — update cost tracks the touched neighborhood, not the table
// size — while the published table's chunks and groups are never
// mutated again.
type ptable struct {
	gen    uint64
	mask   uint32 // bucket-index mask (buckets - 1)
	n      int
	chunks []*pchunk
}

// pchunkBits sizes a chunk at 128 groups of 32 bytes: a touched chunk
// costs a 4KiB copy, and the root stays at ~2k pointers even for a
// million-prefix table (2^18 buckets).
const (
	pchunkBits = 7
	pchunkMask = 1<<pchunkBits - 1
)

type pchunk struct {
	gen    uint64
	groups []pgroup
}

// pgroup is one bucket. gen is the generation that owns entries: a
// chunk copied by a later generation shares its groups' entries until
// each group is touched.
type pgroup struct {
	gen     uint64
	entries []bsplEntry
}

// ptableTargetLoad is the mean entries-per-group above which the table
// doubles. Groups are short slices scanned linearly, so the target
// keeps probe cost at a handful of key compares.
const ptableTargetLoad = 6

// newPtable sizes a table for hint entries. A table starts at a single
// bucket, so the classifier's many one- and two-entry tables stay tiny.
func newPtable(hint int) *ptable {
	buckets := uint32(1)
	for int(buckets)*ptableTargetLoad < hint {
		buckets <<= 1
	}
	t := &ptable{mask: buckets - 1}
	t.chunks = t.newChunks(buckets)
	return t
}

// newChunks allocates every chunk of a table with the given bucket
// count, owned by the current generation: three allocations in all (the
// groups, the chunk headers, the root).
func (t *ptable) newChunks(buckets uint32) []*pchunk {
	per := uint32(1) << pchunkBits
	if buckets < per {
		per = buckets
	}
	groups := make([]pgroup, buckets)
	chunks := make([]pchunk, buckets/per)
	roots := make([]*pchunk, len(chunks))
	for i := range chunks {
		g := groups[uint32(i)*per : uint32(i+1)*per : uint32(i+1)*per]
		for j := range g {
			g[j].gen = t.gen
		}
		chunks[i] = pchunk{gen: t.gen, groups: g}
		roots[i] = &chunks[i]
	}
	return roots
}

// group returns the bucket of key (read-only unless owned).
func (t *ptable) group(idx uint32) *pgroup {
	return &t.chunks[idx>>pchunkBits].groups[idx&pchunkMask]
}

// addrHash mixes a truncated address into a bucket hash. Keys within one
// table share a truncation length, so for IPv4 the significant bits sit
// at the top of the word and a multiplicative mix spreads them; IPv6
// takes FNV-1a over the full 16 bytes.
func addrHash(a pkt.Addr) uint32 {
	if !a.IsV6() {
		x := a.V4Uint()
		x *= 0x9e3779b1
		x ^= x >> 15
		x *= 0x85ebca6b
		x ^= x >> 13
		return x
	}
	b := a.As16()
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// get returns the entry for key, or nil. Safe for concurrent use on a
// published (no longer mutated) table; performs no allocation.
func (t *ptable) get(key pkt.Addr) *bsplEntry {
	g := t.group(addrHash(key) & t.mask)
	for i := range g.entries {
		if g.entries[i].key == key {
			return &g.entries[i]
		}
	}
	return nil
}

// clone derives a mutable table for the next generation. Only the chunk
// root is copied; chunks and groups are shared until first touched.
func (t *ptable) clone() *ptable {
	nt := &ptable{gen: t.gen + 1, mask: t.mask, n: t.n}
	nt.chunks = append([]*pchunk(nil), t.chunks...)
	return nt
}

// ownedGroup returns the group for bucket idx, copying its chunk and
// then its entries first unless this generation already owns them.
func (t *ptable) ownedGroup(idx uint32) *pgroup {
	ci := idx >> pchunkBits
	ch := t.chunks[ci]
	if ch.gen != t.gen {
		ch = &pchunk{gen: t.gen, groups: append([]pgroup(nil), ch.groups...)}
		t.chunks[ci] = ch
	}
	g := &ch.groups[idx&pchunkMask]
	if g.gen != t.gen {
		g.gen = t.gen
		g.entries = append([]bsplEntry(nil), g.entries...)
	}
	return g
}

// upd returns a mutable entry for key, inserting an entry with only its
// key set if absent; fresh reports whether the key was new. The
// returned pointer is valid until the next upd/del on this table
// (growth rehashes groups), so callers mutate it immediately.
// Writer-side only.
func (t *ptable) upd(key pkt.Addr) (e *bsplEntry, fresh bool) {
	if int(t.mask+1)*ptableTargetLoad < t.n+1 {
		t.grow()
	}
	g := t.ownedGroup(addrHash(key) & t.mask)
	for i := range g.entries {
		if g.entries[i].key == key {
			return &g.entries[i], false
		}
	}
	g.entries = append(g.entries, bsplEntry{key: key})
	t.n++
	return &g.entries[len(g.entries)-1], true
}

// del removes key if present. Writer-side only.
func (t *ptable) del(key pkt.Addr) bool {
	idx := addrHash(key) & t.mask
	g := t.group(idx)
	at := -1
	for i := range g.entries {
		if g.entries[i].key == key {
			at = i
			break
		}
	}
	if at < 0 {
		return false
	}
	g = t.ownedGroup(idx) // a copy keeps the order, so at still holds
	last := len(g.entries) - 1
	g.entries[at] = g.entries[last]
	g.entries[last] = bsplEntry{}
	g.entries = g.entries[:last]
	t.n--
	return true
}

// grow doubles the bucket count and rehashes into generation-owned
// chunks and groups. Amortized across inserts; the old levels stay
// intact for any published ancestor generation.
func (t *ptable) grow() {
	old := t.chunks
	buckets := (t.mask + 1) << 1
	t.mask = buckets - 1
	t.chunks = t.newChunks(buckets)
	for _, ch := range old {
		for gi := range ch.groups {
			for _, e := range ch.groups[gi].entries {
				g := t.group(addrHash(e.key) & t.mask)
				g.entries = append(g.entries, e)
			}
		}
	}
}

// each calls fn for every entry. The pointer is mutable writer-side
// during a build; fn must not call upd/del.
func (t *ptable) each(fn func(e *bsplEntry)) {
	for _, ch := range t.chunks {
		for gi := range ch.groups {
			g := &ch.groups[gi]
			for i := range g.entries {
				fn(&g.entries[i])
			}
		}
	}
}
