package aiu

// Overhead guard (run by `make bench-smoke`): with telemetry disabled
// the flow-cache hit path must be a true no-op — zero allocations, and
// the disabled record calls themselves must cost under 2ns per packet.
// The alloc assertion runs in every `go test`; the timing assertion is
// gated behind EISR_BENCH_SMOKE=1 so an overloaded CI box cannot turn a
// scheduler hiccup into a test failure.

import (
	"os"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// newHitPathAIU builds a one-gate AIU with a primed flow so every
// subsequent LookupGate is a flow-table hit. tel may be nil
// (telemetry off — the configuration the guard measures).
func newHitPathAIU(tb testing.TB, tel *telemetry.Telemetry) (*AIU, *pkt.Packet, time.Time) {
	tb.Helper()
	a := New(Config{InitialFlows: 16, MaxFlows: 64}, pcu.TypeSched)
	if tel != nil {
		a.SetTelemetry(tel)
	}
	if _, err := a.Bind(pcu.TypeSched, MatchAll(), &testInstance{name: "drr0"}, nil); err != nil {
		tb.Fatal(err)
	}
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.1.1.1"), Dst: pkt.MustParseAddr("20.2.2.2"),
		SrcPort: 1000, DstPort: 2000, Payload: []byte("payload"),
	})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := pkt.NewPacket(data, 0)
	if err != nil {
		tb.Fatal(err)
	}
	now := time.Now()
	var c cycles.Counter
	if inst, _ := a.LookupGate(p, pcu.TypeSched, now, &c); inst == nil {
		tb.Fatal("priming lookup found no instance")
	}
	return a, p, now
}

// hitOnce forces the flow-table path (not the even cheaper FIX path) by
// clearing the packet's FIX before the lookup.
func hitOnce(a *AIU, p *pkt.Packet, now time.Time, c *cycles.Counter) pcu.Instance {
	p.FIX = nil
	inst, _ := a.LookupGate(p, pcu.TypeSched, now, c)
	return inst
}

// Satellite S1: the telemetry-off hit path allocates nothing per packet.
func TestFlowCacheHitTelemetryOffZeroAlloc(t *testing.T) {
	a, p, now := newHitPathAIU(t, nil)
	var c cycles.Counter
	n := testing.AllocsPerRun(1000, func() {
		if hitOnce(a, p, now, &c) == nil {
			t.Fatal("hit path lost the flow")
		}
	})
	if n != 0 {
		t.Fatalf("telemetry-off flow-cache hit allocated %v per op", n)
	}
}

// Enabled telemetry must not allocate on the hit path either.
func TestFlowCacheHitTelemetryOnZeroAlloc(t *testing.T) {
	tel := telemetry.New()
	tel.EnableTrace(64, 1)
	a, p, now := newHitPathAIU(t, tel)
	var c cycles.Counter
	n := testing.AllocsPerRun(1000, func() {
		if hitOnce(a, p, now, &c) == nil {
			t.Fatal("hit path lost the flow")
		}
	})
	if n != 0 {
		t.Fatalf("telemetry-on flow-cache hit allocated %v per op", n)
	}
}

func BenchmarkFlowCacheHit(b *testing.B) {
	a, p, now := newHitPathAIU(b, nil)
	var c cycles.Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hitOnce(a, p, now, &c)
	}
}

func BenchmarkFlowCacheHitTelemetry(b *testing.B) {
	tel := telemetry.New()
	a, p, now := newHitPathAIU(b, tel)
	var c cycles.Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hitOnce(a, p, now, &c)
	}
}

// Timing guard: a disabled counter Inc plus the hit path's disabled
// telChain.Observe must cost under 2ns per packet. Run via `make
// bench-smoke` (EISR_BENCH_SMOKE=1).
func TestBenchSmokeTelemetryOffOverhead(t *testing.T) {
	if os.Getenv("EISR_BENCH_SMOKE") == "" {
		t.Skip("timing guard; run via make bench-smoke (EISR_BENCH_SMOKE=1)")
	}
	hit := testing.Benchmark(func(b *testing.B) {
		a, p, now := newHitPathAIU(b, nil)
		var c cycles.Counter
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hitOnce(a, p, now, &c)
		}
	})
	if hit.AllocsPerOp() != 0 {
		t.Fatalf("telemetry-off hit path: %d allocs/op, want 0", hit.AllocsPerOp())
	}
	t.Logf("telemetry-off flow-cache hit: %.1f ns/op, %d allocs/op",
		float64(hit.T.Nanoseconds())/float64(hit.N), hit.AllocsPerOp())

	overhead := testing.Benchmark(func(b *testing.B) {
		var (
			hits  *telemetry.Counter
			chain *telemetry.Histogram
		)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits.Inc()
			chain.Observe(uint64(i & 7))
		}
	})
	if overhead.AllocsPerOp() != 0 {
		t.Fatalf("disabled record calls: %d allocs/op, want 0", overhead.AllocsPerOp())
	}
	ns := float64(overhead.T.Nanoseconds()) / float64(overhead.N)
	t.Logf("disabled record calls: %.3f ns/op", ns)
	if ns >= 2 {
		t.Fatalf("disabled record calls cost %.3f ns/op, want < 2", ns)
	}
}
