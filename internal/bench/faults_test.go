package bench

import (
	"os"
	"testing"

	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// TestBenchSmokeFaultBarrier is the acceptance gate for the fault
// barrier's happy path: a guarded dispatch that does not fault must not
// allocate — the barrier is recover-free unless a panic is actually in
// flight. Alloc assertions always run; the relative-overhead assertion
// is timing-sensitive and only runs under EISR_BENCH_SMOKE=1 (the
// make bench-smoke entry point).
func TestBenchSmokeFaultBarrier(t *testing.T) {
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.AddrV4(0x0a000001), Dst: pkt.AddrV4(0x14000001),
		SrcPort: 1000, DstPort: 9, TTL: 255, Payload: make([]byte, 64),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pkt.NewPacket(data, 0)
	if err != nil {
		t.Fatal(err)
	}

	inst := benchInstance{}
	guard := pcu.NewGuard(pcu.PolicyDrop, pcu.NewHealth(pcu.HealthConfig{}))
	guarded := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = guard.Dispatch(pcu.TypeSched, inst, p)
		}
	})
	if allocs := guarded.AllocsPerOp(); allocs != 0 {
		t.Errorf("guarded no-fault dispatch allocates %d allocs/op, want 0", allocs)
	}

	// A nil guard (fault isolation without health tracking) must also
	// stay allocation-free.
	var nilGuard *pcu.Guard
	bare := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = nilGuard.Dispatch(pcu.TypeSched, inst, p)
		}
	})
	if allocs := bare.AllocsPerOp(); allocs != 0 {
		t.Errorf("nil-guard dispatch allocates %d allocs/op, want 0", allocs)
	}

	if os.Getenv("EISR_BENCH_SMOKE") == "" {
		t.Log("EISR_BENCH_SMOKE unset; skipping timing assertion")
		return
	}
	raw := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = inst.HandlePacket(p) //eisr:allow(lifecycle) smoke baseline times the unguarded call
		}
	})
	// The barrier adds one deferred closure and a couple of branches.
	// Allow generous headroom (50ns absolute) so the gate catches a
	// regression to a recover-per-dispatch implementation, not scheduler
	// jitter.
	if delta := guarded.NsPerOp() - raw.NsPerOp(); delta > 50 {
		t.Errorf("guarded dispatch overhead %dns/op over raw (raw=%dns guarded=%dns), want <= 50ns",
			delta, raw.NsPerOp(), guarded.NsPerOp())
	}
}

// TestBenchSmokeFaultedDispatchContained checks the contained-panic
// path end to end at the unit level: the dispatch returns a fault, the
// process survives, and the error carries the instance identity.
func TestBenchSmokeFaultedDispatchContained(t *testing.T) {
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.AddrV4(0x0a000001), Dst: pkt.AddrV4(0x14000001),
		SrcPort: 1000, DstPort: 9, TTL: 255, Payload: make([]byte, 64),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pkt.NewPacket(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	guard := pcu.NewGuard(pcu.PolicyDrop, pcu.NewHealth(pcu.HealthConfig{Threshold: -1}))
	for i := 0; i < 100; i++ {
		err, flt := guard.Dispatch(pcu.TypeSched, panicInstance{}, p)
		if flt == nil || err == nil {
			t.Fatalf("iteration %d: panic not converted to fault (err=%v flt=%v)", i, err, flt)
		}
		if flt.Instance != "panic" {
			t.Fatalf("fault attributed to %q, want %q", flt.Instance, "panic")
		}
	}
}

// TestRunFaultsContainsFaults runs the faults experiment end to end at
// a small size: the panicking instance, bound at the scheduling gate
// and registered as no port's drainer, is dispatched, its panics are
// contained and counted, and traffic keeps flowing after quarantine.
func TestRunFaultsContainsFaults(t *testing.T) {
	rows, faults, err := RunFaults(FaultsOptions{Packets: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if faults == 0 || len(rows) == 0 {
		t.Fatalf("faults = %d, rows = %d; want contained faults and rows", faults, len(rows))
	}
}
