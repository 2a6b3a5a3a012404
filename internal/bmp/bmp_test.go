package bmp

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pkt"
)

// allTables builds one instance of every algorithm for cross-checking,
// plus a CPE emptied by deletion, so each case also runs over a laid-out
// directory, dead arenas and released values.
func allTables() []Table {
	return []Table{NewLinear(), NewPatricia(), NewBSPL(), NewCPE(), emptiedCPE()}
}

// emptiedCPE returns a CPE that held IPv4 and IPv6 prefixes, laid them
// out, and had every one deleted again.
func emptiedCPE() *CPE {
	tab := NewCPE()
	rng := rand.New(rand.NewSource(8))
	ps := append(randomPrefixes(rng, 200, false), randomPrefixes(rng, 20, true)...)
	for i, p := range ps {
		tab.Insert(p, i)
	}
	tab.Lookup(pkt.MustParseAddr("10.0.0.1"), nil)
	for _, p := range ps {
		tab.Delete(p)
	}
	tab.Lookup(pkt.MustParseAddr("10.0.0.1"), nil)
	return tab
}

func TestNewByKind(t *testing.T) {
	for _, k := range []Kind{KindLinear, KindPatricia, KindBSPL, KindCPE} {
		tab, err := New(k)
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if tab.Name() != string(k) {
			t.Errorf("Name() = %s want %s", tab.Name(), k)
		}
	}
	if _, err := New("nonesuch"); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestBasicLongestMatch(t *testing.T) {
	for _, tab := range allTables() {
		t.Run(tab.Name(), func(t *testing.T) {
			tab.Insert(pkt.MustParsePrefix("129.0.0.0/8"), "eight")
			tab.Insert(pkt.MustParsePrefix("129.132.0.0/16"), "sixteen")
			tab.Insert(pkt.MustParsePrefix("129.132.66.0/24"), "twentyfour")
			tab.Insert(pkt.MustParsePrefix("129.132.66.99/32"), "host")

			cases := []struct {
				probe string
				want  any
			}{
				{"129.132.66.99", "host"},
				{"129.132.66.1", "twentyfour"},
				{"129.132.7.7", "sixteen"},
				{"129.9.9.9", "eight"},
			}
			for _, tc := range cases {
				v, _, ok := tab.Lookup(pkt.MustParseAddr(tc.probe), nil)
				if !ok || v != tc.want {
					t.Errorf("Lookup(%s) = %v,%v want %v", tc.probe, v, ok, tc.want)
				}
			}
			if _, _, ok := tab.Lookup(pkt.MustParseAddr("10.0.0.1"), nil); ok {
				t.Error("10.0.0.1 should not match")
			}
			if tab.Len() != 4 {
				t.Errorf("Len = %d want 4", tab.Len())
			}
		})
	}
}

func TestDefaultRoute(t *testing.T) {
	for _, tab := range allTables() {
		t.Run(tab.Name(), func(t *testing.T) {
			tab.Insert(pkt.MustParsePrefix("0.0.0.0/0"), "default")
			tab.Insert(pkt.MustParsePrefix("10.0.0.0/8"), "ten")
			if v, _, ok := tab.Lookup(pkt.MustParseAddr("1.1.1.1"), nil); !ok || v != "default" {
				t.Errorf("default route: got %v,%v", v, ok)
			}
			if v, _, ok := tab.Lookup(pkt.MustParseAddr("10.1.1.1"), nil); !ok || v != "ten" {
				t.Errorf("specific over default: got %v,%v", v, ok)
			}
			// A v4 default must not leak into v6 lookups.
			if _, _, ok := tab.Lookup(pkt.MustParseAddr("2001:db8::1"), nil); ok {
				t.Error("v4 default matched a v6 address")
			}
		})
	}
}

func TestInsertReplaces(t *testing.T) {
	for _, tab := range allTables() {
		tab.Insert(pkt.MustParsePrefix("10.0.0.0/8"), 1)
		tab.Insert(pkt.MustParsePrefix("10.0.0.0/8"), 2)
		if tab.Len() != 1 {
			t.Errorf("%s: Len after replace = %d", tab.Name(), tab.Len())
		}
		if v, _, _ := tab.Lookup(pkt.MustParseAddr("10.1.1.1"), nil); v != 2 {
			t.Errorf("%s: replaced value = %v", tab.Name(), v)
		}
	}
}

func TestDelete(t *testing.T) {
	for _, tab := range allTables() {
		t.Run(tab.Name(), func(t *testing.T) {
			p8 := pkt.MustParsePrefix("10.0.0.0/8")
			p16 := pkt.MustParsePrefix("10.20.0.0/16")
			tab.Insert(p8, "a")
			tab.Insert(p16, "b")
			if !tab.Delete(p16) {
				t.Fatal("Delete existing returned false")
			}
			if tab.Delete(p16) {
				t.Error("double Delete returned true")
			}
			if v, _, ok := tab.Lookup(pkt.MustParseAddr("10.20.1.1"), nil); !ok || v != "a" {
				t.Errorf("after delete: got %v,%v want a", v, ok)
			}
			if tab.Len() != 1 {
				t.Errorf("Len = %d want 1", tab.Len())
			}
			if !tab.Delete(p8) {
				t.Fatal("Delete p8 failed")
			}
			if _, _, ok := tab.Lookup(pkt.MustParseAddr("10.20.1.1"), nil); ok {
				t.Error("lookup after full delete should miss")
			}
		})
	}
}

func TestIPv6Basic(t *testing.T) {
	for _, tab := range allTables() {
		t.Run(tab.Name(), func(t *testing.T) {
			tab.Insert(pkt.MustParsePrefix("2001:db8::/32"), "site")
			tab.Insert(pkt.MustParsePrefix("2001:db8:0:1::/64"), "subnet")
			tab.Insert(pkt.MustParsePrefix("2001:db8:0:1::42/128"), "host")
			if v, _, _ := tab.Lookup(pkt.MustParseAddr("2001:db8:0:1::42"), nil); v != "host" {
				t.Errorf("host match = %v", v)
			}
			if v, _, _ := tab.Lookup(pkt.MustParseAddr("2001:db8:0:1::7"), nil); v != "subnet" {
				t.Errorf("subnet match = %v", v)
			}
			if v, _, _ := tab.Lookup(pkt.MustParseAddr("2001:db8:ff::1"), nil); v != "site" {
				t.Errorf("site match = %v", v)
			}
		})
	}
}

// randomPrefixes generates n random prefixes (v4 or v6) with lengths in
// [1, maxLen], biased toward common routing-table shapes.
func randomPrefixes(rng *rand.Rand, n int, v6 bool) []pkt.Prefix {
	out := make([]pkt.Prefix, 0, n)
	for i := 0; i < n; i++ {
		if v6 {
			var b [16]byte
			rng.Read(b[:])
			l := 1 + rng.Intn(64)
			out = append(out, pkt.PrefixFrom(pkt.AddrFrom16(b), l))
		} else {
			l := 1 + rng.Intn(32)
			out = append(out, pkt.PrefixFrom(pkt.AddrV4(rng.Uint32()), l))
		}
	}
	return out
}

// TestPropertyAllAlgorithmsAgree cross-checks every implementation
// against the linear reference on random prefix populations and probes —
// both families, with deletions interleaved.
func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	for trial := 0; trial < 30; trial++ {
		v6 := trial%2 == 1
		ref := NewLinear()
		others := []Table{NewPatricia(), NewBSPL(), NewCPE()}
		prefixes := randomPrefixes(rng, 80, v6)
		// Add some deliberately nested prefixes to stress splits.
		for i := 0; i+1 < len(prefixes); i += 7 {
			p := prefixes[i]
			if p.Len > 4 {
				prefixes[i+1] = pkt.PrefixFrom(p.Addr, p.Len-1-rng.Intn(p.Len-1))
			}
		}
		for i, p := range prefixes {
			ref.Insert(p, i)
			for _, o := range others {
				o.Insert(p, i)
			}
		}
		// Delete a third of them.
		for i := 0; i < len(prefixes); i += 3 {
			want := ref.Delete(prefixes[i])
			for _, o := range others {
				if got := o.Delete(prefixes[i]); got != want {
					t.Fatalf("trial %d: %s Delete(%s) = %v, reference %v",
						trial, o.Name(), prefixes[i], got, want)
				}
			}
		}
		// Probe with a mix of random addresses and addresses inside
		// installed prefixes (so matches actually occur).
		for probe := 0; probe < 400; probe++ {
			var a pkt.Addr
			if probe%2 == 0 && len(prefixes) > 0 {
				p := prefixes[rng.Intn(len(prefixes))]
				a = p.Addr // inside by construction
			} else if v6 {
				var b [16]byte
				rng.Read(b[:])
				a = pkt.AddrFrom16(b)
			} else {
				a = pkt.AddrV4(rng.Uint32())
			}
			wv, wp, wok := ref.Lookup(a, nil)
			for _, o := range others {
				gv, gp, gok := o.Lookup(a, nil)
				if gok != wok || gv != wv || (wok && gp != wp) {
					t.Fatalf("trial %d: %s Lookup(%s) = (%v,%s,%v), reference (%v,%s,%v)",
						trial, o.Name(), a, gv, gp, gok, wv, wp, wok)
				}
			}
		}
	}
}

func TestBSPLAccessBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, v6 := range []bool{false, true} {
		name := "v4"
		maxProbes := WorstCaseProbes(false)
		if v6 {
			name, maxProbes = "v6", WorstCaseProbes(true)
		}
		t.Run(name, func(t *testing.T) {
			tab := NewBSPL()
			// A large population with lengths spanning the realistic
			// range (below the full address width, as in any routing or
			// filter table: the paper's Table 2 runs 50k filters).
			n := 20000
			for _, p := range randomPrefixes(rng, n, v6) {
				tab.Insert(p, p.String())
			}
			var worst uint64
			for i := 0; i < 5000; i++ {
				var a pkt.Addr
				if v6 {
					var b [16]byte
					rng.Read(b[:])
					a = pkt.AddrFrom16(b)
				} else {
					a = pkt.AddrV4(rng.Uint32())
				}
				var c cycles.Counter
				tab.Lookup(a, &c)
				if c.Mem > worst {
					worst = c.Mem
				}
			}
			if worst > uint64(maxProbes) {
				t.Errorf("worst-case probes = %d, paper bound %d", worst, maxProbes)
			}
			if worst == 0 {
				t.Error("counter never incremented")
			}
		})
	}
}

func TestLinearAccessGrowsWithN(t *testing.T) {
	tab := NewLinear()
	for i := 0; i < 64; i++ {
		tab.Insert(pkt.PrefixFrom(pkt.AddrV4(uint32(i)<<24), 8), i)
	}
	var c cycles.Counter
	tab.Lookup(pkt.MustParseAddr("200.0.0.1"), &c) // matches nothing: full scan
	if c.Mem != 64 {
		t.Errorf("linear scan accesses = %d, want 64", c.Mem)
	}
}

func TestCPEAccessBound(t *testing.T) {
	tab := NewCPE()
	rng := rand.New(rand.NewSource(3))
	for _, p := range randomPrefixes(rng, 5000, false) {
		tab.Insert(p, 1)
	}
	var worst uint64
	for i := 0; i < 2000; i++ {
		var c cycles.Counter
		tab.Lookup(pkt.AddrV4(rng.Uint32()), &c)
		if c.Mem > worst {
			worst = c.Mem
		}
	}
	if worst > 4 {
		t.Errorf("CPE/8 v4 worst accesses = %d, want <= 4", worst)
	}
}

func TestPatriciaCompaction(t *testing.T) {
	tab := NewPatricia()
	// Insert two siblings forcing a split node, then delete one; the
	// split node must be compacted away.
	a := pkt.MustParsePrefix("10.0.0.0/16")
	b := pkt.MustParsePrefix("10.1.0.0/16")
	tab.Insert(a, "a")
	tab.Insert(b, "b")
	tab.Delete(b)
	var c cycles.Counter
	v, _, ok := tab.Lookup(pkt.MustParseAddr("10.0.1.1"), &c)
	if !ok || v != "a" {
		t.Fatalf("lookup after sibling delete: %v %v", v, ok)
	}
	if c.Mem > 1 {
		t.Errorf("lookup visited %d nodes; split node not compacted", c.Mem)
	}
}

func TestTableStress(t *testing.T) {
	// Larger randomized churn against the reference, one run per algo.
	rng := rand.New(rand.NewSource(55))
	ref := NewLinear()
	tabs := []Table{NewPatricia(), NewBSPL(), NewCPE()}
	live := map[pkt.Prefix]bool{}
	for op := 0; op < 3000; op++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			p := randomPrefixes(rng, 1, op%2 == 0)[0]
			ref.Insert(p, op)
			for _, tb := range tabs {
				tb.Insert(p, op)
			}
			live[p] = true
		} else {
			// Delete a random live prefix.
			var p pkt.Prefix
			for q := range live {
				p = q
				break
			}
			delete(live, p)
			ref.Delete(p)
			for _, tb := range tabs {
				tb.Delete(p)
			}
		}
	}
	for _, tb := range tabs {
		if tb.Len() != ref.Len() {
			t.Errorf("%s Len = %d, reference %d", tb.Name(), tb.Len(), ref.Len())
		}
	}
	for i := 0; i < 2000; i++ {
		a := pkt.AddrV4(rng.Uint32())
		if i%2 == 1 {
			var b [16]byte
			rng.Read(b[:])
			a = pkt.AddrFrom16(b)
		}
		wv, _, wok := ref.Lookup(a, nil)
		for _, tb := range tabs {
			gv, _, gok := tb.Lookup(a, nil)
			if gok != wok || gv != wv {
				t.Fatalf("%s stress Lookup(%s) = %v,%v want %v,%v", tb.Name(), a, gv, gok, wv, wok)
			}
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	prefixes := randomPrefixes(rng, 10000, false)
	probes := make([]pkt.Addr, 1024)
	for i := range probes {
		probes[i] = pkt.AddrV4(rng.Uint32())
	}
	for _, mk := range []func() Table{
		func() Table { return NewLinear() },
		func() Table { return NewPatricia() },
		func() Table { return NewBSPL() },
		func() Table { return NewCPE() },
	} {
		tab := mk()
		for i, p := range prefixes {
			tab.Insert(p, i)
		}
		tab.Lookup(probes[0], nil) // force rebuild outside the timer
		b.Run(fmt.Sprintf("%s/10k", tab.Name()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab.Lookup(probes[i&1023], nil)
			}
		})
	}
}
