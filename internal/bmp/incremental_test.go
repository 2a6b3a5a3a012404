package bmp

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/routerplugins/eisr/internal/pkt"
)

// mustPrefix parses or fails the test.
func mustPrefix(t *testing.T, s string) pkt.Prefix {
	t.Helper()
	p, err := pkt.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func ip4(a, b, c, d byte) pkt.Addr {
	return pkt.AddrV4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// refModel rebuilds a table of the given kind from scratch over the
// model map — the oracle an incremental table must match.
func refModel(kind Kind, model map[pkt.Prefix]any) Table {
	b, err := New(kind)
	if err != nil {
		panic(err)
	}
	for p, v := range model {
		b.Insert(p, v)
	}
	return b
}

// assertEquiv checks that got answers every probe exactly like a
// from-scratch rebuild of the model.
func assertEquiv(t *testing.T, step string, got Table, model map[pkt.Prefix]any, probes []pkt.Addr) {
	t.Helper()
	want := refModel(KindLinear, model)
	for _, a := range probes {
		gv, gp, gok := got.Lookup(a, nil)
		wv, wp, wok := want.Lookup(a, nil)
		if gok != wok || gp != wp || (gok && gv != wv) {
			t.Fatalf("%s: lookup %v: got (%v,%v,%v) want (%v,%v,%v)",
				step, a, gv, gp, gok, wv, wp, wok)
		}
	}
	if got.Len() != len(model) {
		t.Fatalf("%s: Len=%d want %d", step, got.Len(), len(model))
	}
}

// incrementalKinds are the engines that implement ApplyDelta.
func incrementalKinds() []Kind { return []Kind{KindPatricia, KindBSPL, KindCPE} }

// primed returns a non-dirty incremental table over the model: BSPL
// and CPE build lazily on first lookup, so prime them the way the routing table
// does before publishing a snapshot.
func primed(kind Kind, model map[pkt.Prefix]any) Incremental {
	b := refModel(kind, model).(Incremental)
	b.Lookup(ip4(0, 0, 0, 0), nil)
	return b
}

// TestIncrementalHandCases drives the structurally nasty sequences by
// hand: aggregates covering more-specifics, /32 hosts, default-route
// flaps, withdraw of a covering aggregate, re-add with a new value.
func TestIncrementalHandCases(t *testing.T) {
	type op struct {
		del bool
		p   string
		v   any
	}
	seqs := map[string][]op{
		"aggregate-over-specifics": {
			{p: "10.1.0.0/16", v: "agg"},
			{p: "10.1.2.0/24", v: "mid"},
			{p: "10.1.2.3/32", v: "host"},
			{del: true, p: "10.1.2.0/24"},
			{del: true, p: "10.1.0.0/16"},
			{del: true, p: "10.1.2.3/32"},
		},
		"default-flap": {
			{p: "0.0.0.0/0", v: "d1"},
			{p: "192.168.0.0/16", v: "net"},
			{del: true, p: "0.0.0.0/0"},
			{p: "0.0.0.0/0", v: "d2"},
			{del: true, p: "0.0.0.0/0"},
		},
		"host-routes": {
			{p: "10.0.0.0/8", v: "eight"},
			{p: "10.9.9.9/32", v: "h1"},
			{p: "10.9.9.8/32", v: "h2"},
			{del: true, p: "10.9.9.9/32"},
			{p: "10.9.9.9/32", v: "h1b"},
			{del: true, p: "10.9.9.8/32"},
		},
		"re-add-new-value": {
			{p: "172.16.0.0/12", v: "a"},
			{p: "172.16.5.0/24", v: "b"},
			{p: "172.16.0.0/12", v: "a2"},
			{del: true, p: "172.16.5.0/24"},
			{p: "172.16.5.0/24", v: "b2"},
		},
		"ipv6-beside-ipv4": {
			{p: "2001:db8::/32", v: "site"},
			{p: "10.0.0.0/8", v: "eight"},
			{p: "2001:db8:0:1::/64", v: "subnet"},
			{p: "::/0", v: "d6"},
			{del: true, p: "2001:db8::/32"},
			{p: "2001:db8:0:1::42/128", v: "host"},
			{del: true, p: "::/0"},
		},
		"withdraw-middle-of-chain": {
			{p: "10.0.0.0/8", v: "l8"},
			{p: "10.128.0.0/9", v: "l9"},
			{p: "10.128.0.0/10", v: "l10"},
			{p: "10.128.0.0/12", v: "l12"},
			{del: true, p: "10.128.0.0/10"},
			{del: true, p: "10.128.0.0/9"},
		},
	}
	probes := []pkt.Addr{
		ip4(10, 1, 2, 3), ip4(10, 1, 2, 4), ip4(10, 1, 9, 1),
		ip4(10, 2, 0, 1), ip4(10, 9, 9, 9), ip4(10, 9, 9, 8),
		ip4(10, 128, 1, 1), ip4(10, 144, 0, 1), ip4(10, 192, 0, 1),
		ip4(192, 168, 3, 4), ip4(172, 16, 5, 9), ip4(172, 16, 9, 9),
		ip4(8, 8, 8, 8), ip4(0, 0, 0, 1),
		pkt.MustParseAddr("2001:db8:0:1::42"), pkt.MustParseAddr("2001:db8:0:1::7"),
		pkt.MustParseAddr("2001:db8:ff::1"), pkt.MustParseAddr("2002::1"),
	}
	for name, seq := range seqs {
		for _, kind := range incrementalKinds() {
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				model := map[pkt.Prefix]any{}
				// Every step derives a new table from the previous via a
				// one-op delta, the worst case for marker maintenance.
				cur := primed(kind, model)
				for i, o := range seq {
					p := mustPrefix(t, o.p)
					var d Delta
					if o.del {
						d.Dels = append(d.Dels, p)
						delete(model, p)
					} else {
						d.Adds = append(d.Adds, PrefixVal{Prefix: p, Val: o.v})
						model[p] = o.v
					}
					nxt, ok := cur.ApplyDelta(d)
					if !ok {
						// Length-set change: legal fallback. Rebuild and go on.
						cur = primed(kind, model)
					} else {
						cur = nxt.(Incremental)
					}
					assertEquiv(t, fmt.Sprintf("%s step %d", name, i), cur, model, probes)
				}
			})
		}
	}
}

// TestIncrementalRandomized replays randomized add/withdraw churn and
// checks, after every delta, that the incremental table answers exactly
// like a from-scratch rebuild — for clustered prefixes (shared /16
// neighborhoods, so aggregates and more-specifics collide constantly)
// and for a wide spread of lengths including /32s and the default route.
func TestIncrementalRandomized(t *testing.T) {
	for _, kind := range incrementalKinds() {
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xf1b))
			lens := []int{0, 8, 12, 16, 20, 24, 28, 32}
			randPrefix := func() pkt.Prefix {
				l := lens[rng.Intn(len(lens))]
				// Cluster everything under a handful of /8s so
				// neighborhoods overlap heavily.
				base := uint32(10+rng.Intn(3)) << 24
				a := base | uint32(rng.Intn(1<<16))<<8 | uint32(rng.Intn(256))
				return pkt.PrefixFrom(pkt.AddrV4(a), l)
			}
			model := map[pkt.Prefix]any{}
			installed := []pkt.Prefix{}
			cur := primed(kind, model)
			var probes []pkt.Addr
			for step := 0; step < 400; step++ {
				var d Delta
				// Mixed batches: 1–4 ops, biased toward adds early and
				// balanced once populated. One op per prefix per batch —
				// Delta applies adds before dels and leaves same-prefix
				// coalescing to the caller, as the route feed does.
				n := 1 + rng.Intn(4)
				touched := map[pkt.Prefix]bool{}
				for i := 0; i < n; i++ {
					if len(installed) > 0 && rng.Intn(100) < 40 {
						j := rng.Intn(len(installed))
						p := installed[j]
						if touched[p] {
							continue
						}
						touched[p] = true
						installed = append(installed[:j], installed[j+1:]...)
						d.Dels = append(d.Dels, p)
						delete(model, p)
					} else {
						p := randPrefix()
						if touched[p] {
							continue
						}
						touched[p] = true
						v := fmt.Sprintf("v%d.%d", step, i)
						if _, dup := model[p]; !dup {
							installed = append(installed, p)
						}
						d.Adds = append(d.Adds, PrefixVal{Prefix: p, Val: v})
						model[p] = v
					}
				}
				nxt, ok := cur.ApplyDelta(d)
				if !ok {
					cur = primed(kind, model)
				} else {
					cur = nxt.(Incremental)
				}
				// Probe set: the mutated prefixes' own addresses, bit
				// neighbors, and fresh random addresses.
				probes = probes[:0]
				for _, a := range d.Adds {
					probes = append(probes, a.Prefix.Addr)
				}
				for _, p := range d.Dels {
					probes = append(probes, p.Addr)
				}
				for i := 0; i < 24; i++ {
					probes = append(probes, pkt.AddrV4(uint32(10+rng.Intn(4))<<24|uint32(rng.Intn(1<<24))))
				}
				assertEquiv(t, fmt.Sprintf("step %d", step), cur, model, probes)
			}
		})
	}
}

// TestIncrementalSharesStructure pins the COW contract: the pre-delta
// table must keep answering with its old state after the derived table
// diverges — this is what lets the routing table publish the result
// while readers still hold the old snapshot.
func TestIncrementalSharesStructure(t *testing.T) {
	for _, kind := range incrementalKinds() {
		t.Run(string(kind), func(t *testing.T) {
			model := map[pkt.Prefix]any{}
			for i := 0; i < 64; i++ {
				p := pkt.PrefixFrom(pkt.AddrV4(uint32(10)<<24|uint32(i)<<16), 16)
				model[p] = i
			}
			old := primed(kind, model)
			target := mustPrefix(t, "10.7.0.0/16")
			probe := ip4(10, 7, 1, 1)
			nxt, ok := old.ApplyDelta(Delta{Dels: []pkt.Prefix{target}})
			if !ok {
				t.Fatalf("ApplyDelta fallback on pure delete")
			}
			if _, _, found := nxt.Lookup(probe, nil); found {
				t.Fatalf("new table still matches withdrawn %v", target)
			}
			if v, p, found := old.Lookup(probe, nil); !found || p != target || v != 7 {
				t.Fatalf("old table lost %v after COW delete: (%v,%v,%v)", target, v, p, found)
			}
		})
	}
}

// TestIncrementalLengthSetFallback pins the BSPL contract: a delta
// introducing a brand-new prefix length must refuse incremental
// application, and deletes must never shrink the length set.
func TestIncrementalLengthSetFallback(t *testing.T) {
	model := map[pkt.Prefix]any{
		mustPrefix(t, "10.0.0.0/8"):  "a",
		mustPrefix(t, "10.1.0.0/16"): "b",
		mustPrefix(t, "10.1.2.0/24"): "c",
	}
	b := primed(KindBSPL, model)
	if _, ok := b.ApplyDelta(Delta{Adds: []PrefixVal{{Prefix: mustPrefix(t, "10.1.2.128/25"), Val: "new"}}}); ok {
		t.Fatalf("ApplyDelta accepted a new prefix length incrementally")
	}
	// Withdraw the only /24, then add a different /24: the emptied table
	// must have been kept so the second delta stays incremental.
	n1, ok := b.ApplyDelta(Delta{Dels: []pkt.Prefix{mustPrefix(t, "10.1.2.0/24")}})
	if !ok {
		t.Fatalf("delete fell back")
	}
	n2, ok := n1.(Incremental).ApplyDelta(Delta{Adds: []PrefixVal{{Prefix: mustPrefix(t, "10.9.9.0/24"), Val: "c2"}}})
	if !ok {
		t.Fatalf("re-add of an emptied length fell back; empty tables must persist")
	}
	if v, _, found := n2.Lookup(ip4(10, 9, 9, 1), nil); !found || v != "c2" {
		t.Fatalf("lookup after emptied-length re-add: (%v,%v)", v, found)
	}
}

// TestCPEValuesBounded re-announces the same prefixes with a new metric
// every round: each round kills every value the last one made, and the
// value slice must stay bounded instead of growing with the rounds.
func TestCPEValuesBounded(t *testing.T) {
	type nextHop struct{ IfIndex, Metric int }
	var ps []pkt.Prefix
	for i := 0; i < 40; i++ {
		ps = append(ps, pkt.PrefixFrom(pkt.AddrV4(uint32(10)<<24|uint32(i)<<12), 8+i%24))
	}
	model := map[pkt.Prefix]any{}
	cur := primed(KindCPE, model)
	for round := 0; round < 200; round++ {
		var d Delta
		for i, p := range ps {
			v := nextHop{IfIndex: i % 3, Metric: round}
			d.Adds = append(d.Adds, PrefixVal{Prefix: p, Val: v})
			model[p] = v
		}
		nxt, ok := cur.ApplyDelta(d)
		if !ok {
			t.Fatalf("round %d: ApplyDelta fell back", round)
		}
		cur = nxt.(Incremental)
		if n := len(cur.(*CPE).vals); n > 2*len(ps)+cpeMinDead {
			t.Fatalf("round %d: %d values for %d prefixes", round, n, len(ps))
		}
	}
	probes := make([]pkt.Addr, 0, len(ps))
	for _, p := range ps {
		probes = append(probes, p.Addr)
	}
	assertEquiv(t, "after churn", cur, model, probes)
}

// TestCPEDefaultOnlyNoDirectory pins the memory rule: a table holding
// only a default route allocates no directory, pool or values.
func TestCPEDefaultOnlyNoDirectory(t *testing.T) {
	tab := NewCPE()
	tab.Insert(mustPrefix(t, "0.0.0.0/0"), "default")
	if v, p, ok := tab.Lookup(ip4(192, 0, 2, 1), nil); !ok || v != "default" || p != (pkt.Prefix{}) {
		t.Fatalf("default lookup = (%v,%v,%v)", v, p, ok)
	}
	if tab.dir != nil || tab.pool != nil || tab.vals != nil {
		t.Fatalf("default-only table allocated dir=%d pool=%d vals=%d", len(tab.dir), len(tab.pool), len(tab.vals))
	}
	// A longer prefix brings the directory; withdrawing it drops it.
	p := mustPrefix(t, "10.0.0.0/8")
	nxt, _ := tab.ApplyDelta(Delta{Adds: []PrefixVal{{Prefix: p, Val: "ten"}}})
	if nxt.(*CPE).dir == nil {
		t.Fatal("no directory after adding a /8")
	}
	nxt, _ = nxt.(Incremental).ApplyDelta(Delta{Dels: []pkt.Prefix{p}})
	if c := nxt.(*CPE); c.dir != nil || c.pool != nil {
		t.Fatal("directory kept after the last prefix longer than /0 went")
	}
}
