package routing

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/pkt"
)

func ip4(a, b, c, d byte) pkt.Addr {
	return pkt.AddrV4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// TestApplyBatchKindsAgree churns randomized batches through one table
// per BMP kind and checks that every kind answers every probe
// identically — the incremental engines (patricia, bspl, cpe) against
// the rebuild-only one (linear).
func TestApplyBatchKindsAgree(t *testing.T) {
	kinds := []bmp.Kind{bmp.KindLinear, bmp.KindPatricia, bmp.KindBSPL, bmp.KindCPE}
	tabs := make([]*Table, len(kinds))
	for i, k := range kinds {
		var err error
		tabs[i], err = New(k)
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	lens := []int{0, 8, 12, 16, 20, 24, 32}
	var installed []pkt.Prefix
	for step := 0; step < 120; step++ {
		var adds []Route
		var dels []pkt.Prefix
		touched := map[pkt.Prefix]bool{}
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			if len(installed) > 0 && rng.Intn(100) < 35 {
				j := rng.Intn(len(installed))
				p := installed[j]
				if touched[p] {
					continue
				}
				touched[p] = true
				installed = append(installed[:j], installed[j+1:]...)
				dels = append(dels, p)
			} else {
				a := uint32(10)<<24 | uint32(rng.Intn(1<<16))<<8
				p := pkt.PrefixFrom(pkt.AddrV4(a), lens[rng.Intn(len(lens))])
				if touched[p] {
					continue
				}
				touched[p] = true
				installed = append(installed, p)
				adds = append(adds, Route{Prefix: p, NextHop: NextHop{IfIndex: int32(step), Metric: rng.Intn(3)}})
			}
		}
		for _, tb := range tabs {
			tb.ApplyBatch(adds, dels)
		}
		for i := 0; i < 20; i++ {
			dst := pkt.AddrV4(uint32(10)<<24 | uint32(rng.Intn(1<<24)))
			ref, refOK := tabs[0].Lookup(dst, nil)
			for j := 1; j < len(tabs); j++ {
				nh, ok := tabs[j].Lookup(dst, nil)
				if ok != refOK || nh != ref {
					t.Fatalf("step %d: kind %s disagrees with linear on %v: (%v,%v) vs (%v,%v)",
						step, kinds[j], dst, nh, ok, ref, refOK)
				}
			}
		}
	}
}

// TestApplyBatchSinglePublish checks batch semantics: metric-worse adds
// are ignored, absent dels are no-ops, and the returned counts reflect
// what actually changed.
func TestApplyBatchSinglePublish(t *testing.T) {
	tb, err := New(bmp.KindPatricia)
	if err != nil {
		t.Fatal(err)
	}
	p1 := pkt.PrefixFrom(ip4(10, 1, 0, 0), 16)
	p2 := pkt.PrefixFrom(ip4(10, 2, 0, 0), 16)
	na, nd := tb.ApplyBatch([]Route{
		{Prefix: p1, NextHop: NextHop{IfIndex: 1, Metric: 1}},
		{Prefix: p2, NextHop: NextHop{IfIndex: 2}},
	}, nil)
	if na != 2 || nd != 0 {
		t.Fatalf("initial batch: (%d,%d)", na, nd)
	}
	// Worse metric ignored, absent delete ignored, real delete counted.
	na, nd = tb.ApplyBatch(
		[]Route{{Prefix: p1, NextHop: NextHop{IfIndex: 9, Metric: 5}}},
		[]pkt.Prefix{p2, pkt.PrefixFrom(ip4(10, 3, 0, 0), 16)},
	)
	if na != 0 || nd != 1 {
		t.Fatalf("second batch: (%d,%d)", na, nd)
	}
	if nh, ok := tb.Lookup(ip4(10, 1, 5, 5), nil); !ok || nh.IfIndex != 1 {
		t.Fatalf("metric-worse add replaced the route: %+v %v", nh, ok)
	}
	if _, ok := tb.Lookup(ip4(10, 2, 5, 5), nil); ok {
		t.Fatalf("withdrawn route still matches")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len=%d want 1", tb.Len())
	}
}

// TestConcurrentLookupDuringBatches hammers lock-free Lookup from
// several goroutines while a writer replays batched churn — the
// snapshot-publication contract under -race. Readers assert only
// invariants that hold across generations: a hit must return one of the
// values ever installed for a covering prefix.
func TestConcurrentLookupDuringBatches(t *testing.T) {
	for _, kind := range []bmp.Kind{bmp.KindPatricia, bmp.KindBSPL, bmp.KindCPE} {
		t.Run(string(kind), func(t *testing.T) {
			tb, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			// Stable covering route so every probe under 10/8 always hits.
			tb.Add(pkt.PrefixFrom(ip4(10, 0, 0, 0), 8), NextHop{IfIndex: 1000})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						dst := pkt.AddrV4(uint32(10)<<24 | uint32(rng.Intn(1<<24)))
						nh, ok := tb.Lookup(dst, nil)
						if !ok {
							t.Errorf("lookup %v missed despite covering /8", dst)
							return
						}
						if nh.IfIndex < 0 || (nh.IfIndex > 255 && nh.IfIndex != 1000) {
							t.Errorf("lookup %v returned torn next hop %+v", dst, nh)
							return
						}
					}
				}(int64(w))
			}
			rng := rand.New(rand.NewSource(7))
			var installed []pkt.Prefix
			for step := 0; step < 300; step++ {
				var adds []Route
				var dels []pkt.Prefix
				touched := map[pkt.Prefix]bool{}
				for i, n := 0, 1+rng.Intn(8); i < n; i++ {
					if len(installed) > 0 && rng.Intn(2) == 0 {
						j := rng.Intn(len(installed))
						p := installed[j]
						if touched[p] {
							continue
						}
						touched[p] = true
						installed = append(installed[:j], installed[j+1:]...)
						dels = append(dels, p)
					} else {
						l := []int{12, 16, 20, 24, 32}[rng.Intn(5)]
						p := pkt.PrefixFrom(pkt.AddrV4(uint32(10)<<24|uint32(rng.Intn(1<<24))), l)
						if touched[p] || p.Len == 8 {
							continue
						}
						touched[p] = true
						installed = append(installed, p)
						adds = append(adds, Route{Prefix: p, NextHop: NextHop{IfIndex: int32(rng.Intn(256))}})
					}
				}
				tb.ApplyBatch(adds, dels)
			}
			close(stop)
			wg.Wait()
		})
	}
}

var sinkNH NextHop

// BenchmarkApplyBatchIncremental measures per-batch update cost on a
// populated table — the number the fib bench's incremental-vs-rebuild
// comparison tracks.
func BenchmarkApplyBatchIncremental(b *testing.B) {
	for _, kind := range []bmp.Kind{bmp.KindPatricia, bmp.KindBSPL, bmp.KindCPE} {
		b.Run(string(kind), func(b *testing.B) {
			tb, err := New(kind)
			if err != nil {
				b.Fatal(err)
			}
			var adds []Route
			for i := 0; i < 100_000; i++ {
				p := pkt.PrefixFrom(pkt.AddrV4(uint32(10)<<24|uint32(i)<<8), 24)
				adds = append(adds, Route{Prefix: p, NextHop: NextHop{IfIndex: int32(i & 7)}})
			}
			tb.ApplyBatch(adds, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pkt.PrefixFrom(pkt.AddrV4(uint32(10)<<24|uint32(i%100_000)<<8), 24)
				tb.ApplyBatch([]Route{{Prefix: p, NextHop: NextHop{IfIndex: int32(i)}}}, nil)
			}
			b.StopTimer()
			nh, _ := tb.Lookup(ip4(10, 0, 1, 1), nil)
			sinkNH = nh
			_ = fmt.Sprint(sinkNH)
		})
	}
}
