package bench

import (
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/routing"
)

// TestFIBZeroAllocLookup is the always-on guard: a snapshot lookup on a
// loaded table allocates nothing, for every incremental engine.
func TestFIBZeroAllocLookup(t *testing.T) {
	for _, kind := range []string{"patricia", "bspl", "cpe"} {
		rng := rand.New(rand.NewSource(7))
		routes := genRoutes(rng, 10_000)
		probes := fibProbes(rng, routes, 4096)
		tbl, err := routing.New(bmp.Kind(kind))
		if err != nil {
			t.Fatal(err)
		}
		tbl.ApplyBatch(routes, nil)
		i := 0
		allocs := testing.AllocsPerRun(2048, func() {
			tbl.Lookup(probes[i%len(probes)], nil)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per lookup, want 0", kind, allocs)
		}
	}
}

// TestFIBSweepSmall keeps the sweep itself under tier-1 coverage at a
// size where it runs in well under a second.
func TestFIBSweepSmall(t *testing.T) {
	rows, err := RunFIB(FIBOptions{Sizes: []int{2000}, UpdateOps: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.LookupNS <= 0 || r.IncUpdateNS <= 0 || r.Rebuild <= 0 {
			t.Errorf("%s/%d: degenerate row %+v", r.Kind, r.Size, r)
		}
		if r.AllocsPerLookup > fibAllocNoise {
			t.Errorf("%s/%d: %.4f allocs per lookup, want 0", r.Kind, r.Size, r.AllocsPerLookup)
		}
	}
	t.Logf("\n%s", FIBTable(rows))
}

// fibAllocNoise tolerates stray background runtime allocations in the
// sweep's whole-process MemStats delta; the exact-zero guarantee on the
// lookup path itself is TestFIBZeroAllocLookup's AllocsPerRun guard.
const fibAllocNoise = 0.002

// TestFIBChurnSmall drives the live-wire churn topology at a tier-1
// friendly size and requires perfect delivery: route churn must never
// cost packets.
func TestFIBChurnSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("wire topology; skipped in -short")
	}
	res, err := RunFIBChurn(FIBChurnOptions{
		Routes: 2000, Updates: 400, BatchOps: 50, Packets: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost() != 0 {
		t.Fatalf("lost %d of %d packets under churn", res.Lost(), res.Packets)
	}
	if res.Batches == 0 || res.ConvergeMax == 0 {
		t.Fatalf("churn did not run: %+v", res)
	}
	t.Logf("\n%s", FIBChurnTable(res))
}

// TestAwaitWindow: the churn sender's window wait returns once a
// delivery reopens the window, and fails, naming sent and received,
// when deliveries stop with the window full.
func TestAwaitWindow(t *testing.T) {
	var n atomic.Int64
	go func() {
		time.Sleep(5 * time.Millisecond)
		n.Store(7)
	}()
	if err := awaitWindow(10, n.Load, 4, time.Second); err != nil {
		t.Fatalf("window reopened by a delivery: %v", err)
	}

	stalled := func() int64 { return 5 }
	start := time.Now()
	err := awaitWindow(10, stalled, 4, 20*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "sent 10, received 5") {
		t.Fatalf("stalled deliveries: err %v, want one naming sent 10, received 5", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("stall reported after %v, want about 20ms", d)
	}
}

// TestBenchSmokeFIBScale is the bench-smoke guard (EISR_BENCH_SMOKE=1):
// at a million prefixes lookups stay allocation-free, and at 100k a
// single-route incremental update is at least 10x cheaper than the full
// rebuild it replaces.
func TestBenchSmokeFIBScale(t *testing.T) {
	if os.Getenv("EISR_BENCH_SMOKE") == "" {
		t.Skip("set EISR_BENCH_SMOKE=1 to run")
	}
	rows, err := RunFIB(FIBOptions{Sizes: []int{100_000, 1_000_000}, UpdateOps: 100})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FIBTable(rows))
	for _, r := range rows {
		if r.AllocsPerLookup > fibAllocNoise {
			t.Errorf("%s/%d: %.4f allocs per lookup, want 0", r.Kind, r.Size, r.AllocsPerLookup)
		}
		if r.Size == 100_000 && r.Ratio < 10 {
			t.Errorf("%s/%d: incremental update only %.1fx cheaper than rebuild, want >= 10x",
				r.Kind, r.Size, r.Ratio)
		}
	}
}

// TestBenchSmokeFIBChurn is the churn smoke (EISR_BENCH_SMOKE=1): 100k
// prefixes, 10k updates under forwarding load, zero unexplained drops,
// and bounded convergence on every batch.
func TestBenchSmokeFIBChurn(t *testing.T) {
	if os.Getenv("EISR_BENCH_SMOKE") == "" {
		t.Skip("set EISR_BENCH_SMOKE=1 to run")
	}
	res, err := RunFIBChurn(FIBChurnOptions{
		Routes: 100_000, Updates: 10_000, Packets: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FIBChurnTable(res))
	if res.Lost() != 0 {
		t.Fatalf("lost %d of %d packets under churn", res.Lost(), res.Packets)
	}
	if res.Batches == 0 {
		t.Fatal("churn applied no batches")
	}
	if res.ConvergeMax > 500*time.Millisecond {
		t.Errorf("slowest batch converged in %v, want < 500ms", res.ConvergeMax)
	}
}
