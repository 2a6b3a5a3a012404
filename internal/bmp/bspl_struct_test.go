package bmp

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/routerplugins/eisr/internal/pkt"
)

// TestBSPLLayout pins the probe footprint: a 32-byte entry (key,
// steering bit, route-record pointer), 32-byte groups held inline in
// 4 KiB chunks, and a one-entry table that fits in one bucket.
func TestBSPLLayout(t *testing.T) {
	if n := unsafe.Sizeof(bsplEntry{}); n != 32 {
		t.Errorf("bsplEntry is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(pgroup{}) << pchunkBits; n != 4096 {
		t.Errorf("a chunk's groups take %d bytes, want 4096", n)
	}
	b := NewBSPL()
	b.Insert(mustPrefix(t, "10.0.0.0/8"), 1)
	b.Lookup(ip4(10, 1, 2, 3), nil)
	if tab := b.fam[0].tables[0]; tab.mask != 0 || len(tab.chunks) != 1 {
		t.Errorf("one-entry table has %d buckets in %d chunks, want 1 in 1", tab.mask+1, len(tab.chunks))
	}
}

// bsplSlot names one per-length table entry: family, level, key.
type bsplSlot struct {
	fam int
	L   int
	key pkt.Addr
}

// bsplCell is what an entry holds, with its BMP record resolved.
type bsplCell struct {
	hasLonger bool
	bmpOK     bool
	bmp       pkt.Prefix
	val       any
}

// bsplCells flattens every per-length table of a built BSPL.
func bsplCells(t *BSPL) map[bsplSlot]bsplCell {
	out := make(map[bsplSlot]bsplCell)
	for fi := range t.fam {
		f := &t.fam[fi]
		for i, tab := range f.tables {
			L := f.lens[i]
			tab.each(func(e *bsplEntry) {
				c := bsplCell{hasLonger: e.hasLonger}
				if e.bmp != nil {
					c.bmpOK, c.bmp, c.val = true, e.bmp.prefix, e.bmp.val
				}
				out[bsplSlot{fi, L, e.key}] = c
			})
		}
	}
	return out
}

// assertSameStructure checks an incrementally derived BSPL against a
// fresh rebuild of the model: same lengths, same default route, and
// entry for entry the same keys, steering bits, BMP prefixes and
// values — not just the same lookup answers.
func assertSameStructure(t *testing.T, step string, got *BSPL, model map[pkt.Prefix]any) {
	t.Helper()
	want := primed(KindBSPL, model).(*BSPL)
	for fi := range want.fam {
		gf, wf := &got.fam[fi], &want.fam[fi]
		if fmt.Sprint(gf.lens) != fmt.Sprint(wf.lens) {
			t.Fatalf("%s: fam %d lens %v want %v", step, fi, gf.lens, wf.lens)
		}
		if (gf.def == nil) != (wf.def == nil) || (gf.def != nil && *gf.def != *wf.def) {
			t.Fatalf("%s: fam %d default route %v want %v", step, fi, gf.def, wf.def)
		}
		for i := range gf.tables {
			n := 0
			gf.tables[i].each(func(*bsplEntry) { n++ })
			if n != gf.tables[i].n {
				t.Fatalf("%s: fam %d /%d table counts %d entries, holds %d", step, fi, gf.lens[i], gf.tables[i].n, n)
			}
		}
	}
	gc, wc := bsplCells(got), bsplCells(want)
	for s, w := range wc {
		g, ok := gc[s]
		if !ok {
			t.Fatalf("%s: missing entry %v/%d (fam %d): want %+v", step, s.key, s.L, s.fam, w)
		}
		if g != w {
			t.Fatalf("%s: entry %v/%d (fam %d): got %+v want %+v", step, s.key, s.L, s.fam, g, w)
		}
	}
	for s, g := range gc {
		if _, ok := wc[s]; !ok {
			t.Fatalf("%s: stale entry %v/%d (fam %d): %+v", step, s.key, s.L, s.fam, g)
		}
	}
}

// applyOK derives the next BSPL and fails unless it was incremental.
func applyOK(t *testing.T, step string, b *BSPL, d Delta) *BSPL {
	t.Helper()
	nb, ok := b.ApplyDelta(d)
	if !ok {
		t.Fatalf("%s: ApplyDelta fell back to a rebuild", step)
	}
	return nb.(*BSPL)
}

// TestBSPLIncrementalStructureRandomized applies random nested deltas to
// a table whose every length is anchored by a prefix that is never
// deleted, so the length set is fixed and each delta stays incremental.
// After every delta the per-length tables must equal a fresh rebuild's,
// entry for entry.
func TestBSPLIncrementalStructureRandomized(t *testing.T) {
	lens4 := []int{4, 8, 10, 12, 16, 20, 24, 28, 32}
	lens6 := []int{16, 32, 40, 48, 64, 128}
	seeds, steps := 30, 300
	if testing.Short() {
		seeds, steps = 5, 100
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		model := map[pkt.Prefix]any{}
		anchor := map[pkt.Prefix]bool{}
		// Anchors live in 200/8 (2001:db9::/32 for IPv6); the churned
		// prefixes nest densely inside 10.0.0.0/12 and 2001:db8::/44.
		for _, L := range lens4 {
			p := pkt.PrefixFrom(ip4(200, 1, 2, 3), L)
			if L < 8 {
				p = pkt.PrefixFrom(ip4(208, 0, 0, 0), L)
			}
			model[p], anchor[p] = fmt.Sprintf("anchor/%d", L), true
		}
		for _, L := range lens6 {
			p := pkt.PrefixFrom(mustPrefix(t, "2001:db9:1:2::3/128").Addr, L)
			model[p], anchor[p] = fmt.Sprintf("anchor6/%d", L), true
		}
		randPrefix := func() pkt.Prefix {
			if rng.Intn(5) == 0 {
				a := mustPrefix(t, "2001:db8::/128").Addr.As16()
				a[5] = byte(rng.Intn(16))
				for i := 6; i < 16; i++ {
					a[i] = byte(rng.Intn(4))
				}
				return pkt.PrefixFrom(pkt.AddrFrom16(a), lens6[1+rng.Intn(len(lens6)-1)])
			}
			a := ip4(10, byte(rng.Intn(16)), byte(rng.Intn(4)), byte(rng.Intn(4)))
			return pkt.PrefixFrom(a, lens4[1+rng.Intn(len(lens4)-1)])
		}
		if rng.Intn(2) == 0 {
			model[pkt.PrefixFrom(ip4(0, 0, 0, 0), 0)] = "default"
		}
		for i := 0; i < 60; i++ {
			model[randPrefix()] = i
		}
		b := primed(KindBSPL, model).(*BSPL)
		assertSameStructure(t, fmt.Sprintf("seed %d: build", seed), b, model)
		for step := 0; step < steps; step++ {
			var d Delta
			touched := map[pkt.Prefix]bool{}
			for n := rng.Intn(4); n > 0; n-- {
				p := randPrefix()
				if rng.Intn(20) == 0 {
					p = pkt.PrefixFrom(ip4(0, 0, 0, 0), 0)
				}
				if touched[p] || anchor[p] {
					continue
				}
				touched[p] = true
				d.Adds = append(d.Adds, PrefixVal{Prefix: p, Val: fmt.Sprintf("s%d-%d", step, n)})
			}
			for p := range model {
				if len(d.Dels) >= 3 || touched[p] || anchor[p] || rng.Intn(len(model)) > 2 {
					continue
				}
				touched[p] = true
				d.Dels = append(d.Dels, p)
			}
			for _, a := range d.Adds {
				model[a.Prefix] = a.Val
			}
			for _, p := range d.Dels {
				delete(model, p)
			}
			name := fmt.Sprintf("seed %d step %d (+%d -%d)", seed, step, len(d.Adds), len(d.Dels))
			b = applyOK(t, name, b, d)
			assertSameStructure(t, name, b, model)
		}
	}
}

// TestBSPLIncrementalStructureHandCases pins the frontier repair on the
// shapes it exists for.
func TestBSPLIncrementalStructureHandCases(t *testing.T) {
	p := func(s string) pkt.Prefix { return mustPrefix(t, s) }

	t.Run("aggregate over all four /10s", func(t *testing.T) {
		model := map[pkt.Prefix]any{
			p("11.0.0.0/8"): "anchor",
		}
		for _, s := range []string{"10.0.0.0/10", "10.64.0.0/10", "10.128.0.0/10", "10.192.0.0/10"} {
			model[p(s)] = s
		}
		for i := 0; i < 64; i++ {
			model[pkt.PrefixFrom(ip4(10, byte(i*4), 0, 0), 16)] = i
			model[pkt.PrefixFrom(ip4(10, byte(i*4), byte(i), 0), 24)] = -i
		}
		b := primed(KindBSPL, model).(*BSPL)
		var frontier []pkt.Prefix
		b.ref.walkFrontier(p("10.0.0.0/8"), func(q pkt.Prefix) { frontier = append(frontier, q) })
		if len(frontier) != 4 {
			t.Fatalf("frontier under 10/8 = %v, want the four /10s", frontier)
		}
		model[p("10.0.0.0/8")] = "agg"
		b = applyOK(t, "add /8", b, Delta{Adds: []PrefixVal{{Prefix: p("10.0.0.0/8"), Val: "agg"}}})
		assertSameStructure(t, "add /8", b, model)
		delete(model, p("10.0.0.0/8"))
		b = applyOK(t, "del /8", b, Delta{Dels: []pkt.Prefix{p("10.0.0.0/8")}})
		assertSameStructure(t, "del /8", b, model)
	})

	t.Run("re-add with a new value", func(t *testing.T) {
		model := map[pkt.Prefix]any{
			p("10.0.0.0/8"):    "old",
			p("10.1.0.0/16"):   "mid",
			p("10.1.2.0/24"):   "leaf",
			p("10.200.0.0/16"): "other",
			p("10.0.0.0/12"):   "twelve",
		}
		b := primed(KindBSPL, model).(*BSPL)
		model[p("10.0.0.0/8")] = "new"
		b = applyOK(t, "re-add", b, Delta{Adds: []PrefixVal{{Prefix: p("10.0.0.0/8"), Val: "new"}}})
		assertSameStructure(t, "re-add", b, model)
		if v, _, _ := b.Lookup(ip4(10, 200, 9, 9), nil); v != "other" {
			t.Fatalf("lookup under /16 = %v", v)
		}
		if v, _, _ := b.Lookup(ip4(10, 99, 9, 9), nil); v != "new" {
			t.Fatalf("lookup under the re-added /8 = %v, want new", v)
		}
	})

	t.Run("delete orphans a frontier marker", func(t *testing.T) {
		// Lengths {8,16,24}: the search starts at /16, so the /24 drops
		// a marker at 10.1/16 whose BMP is the /8. Deleting the /24
		// orphans that marker; re-adding it must rebuild the marker with
		// the /8 as BMP, and deleting the /8 must then clear it.
		model := map[pkt.Prefix]any{
			p("10.0.0.0/8"):   "agg",
			p("10.1.2.0/24"):  "leaf",
			p("20.0.0.0/16"):  "anchor16",
			p("20.0.0.0/8"):   "anchor8",
			p("30.1.2.0/24"):  "anchor24",
			p("10.1.99.0/24"): "sibling",
		}
		b := primed(KindBSPL, model).(*BSPL)
		steps := []Delta{
			{Dels: []pkt.Prefix{p("10.1.2.0/24")}},
			{Dels: []pkt.Prefix{p("10.1.99.0/24")}},
			{Adds: []PrefixVal{{Prefix: p("10.1.2.0/24"), Val: "leaf2"}}},
			{Dels: []pkt.Prefix{p("10.0.0.0/8")}},
			{Adds: []PrefixVal{{Prefix: p("10.0.0.0/8"), Val: "agg2"}}, Dels: []pkt.Prefix{p("10.1.2.0/24")}},
		}
		for i, d := range steps {
			for _, a := range d.Adds {
				model[a.Prefix] = a.Val
			}
			for _, q := range d.Dels {
				delete(model, q)
			}
			name := fmt.Sprintf("step %d", i)
			b = applyOK(t, name, b, d)
			assertSameStructure(t, name, b, model)
		}
		if e := b.fam[0].tables[b.fam[0].lenIndex(16)].get(ip4(10, 1, 0, 0)); e != nil {
			t.Fatalf("orphaned marker 10.1/16 survived: %+v", *e)
		}
	})
}
