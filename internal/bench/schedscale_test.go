package bench

import (
	"os"
	"testing"

	"github.com/routerplugins/eisr/internal/sched"
)

// TestSchedScaleEiffelZeroAlloc is the always-on allocation guard for the
// Eiffel fast path: once flows exist and the in-flight packet set is
// built, an enqueue+dequeue pair must not touch the heap — the wheel is
// fixed-size arrays and the per-packet chain is intrusive.
func TestSchedScaleEiffelZeroAlloc(t *testing.T) {
	e := sched.NewEiffel(1500, 0)
	const flows = 512
	qs := make([]*sched.EiffelQueue, flows)
	for i := range qs {
		qs[i], _ = e.Queue(uint32(i), 0)
	}
	ps := scalePackets(flows)
	for i, p := range ps {
		if err := e.EnqueueFlow(qs[i], p); err != nil {
			t.Fatal(err)
		}
	}
	f := 0
	if avg := testing.AllocsPerRun(2000, func() {
		p := e.Dequeue()
		if p == nil {
			t.Fatal("empty in steady state")
		}
		if err := e.EnqueueFlow(qs[f%flows], p); err != nil {
			t.Fatal(err)
		}
		f++
	}); avg != 0 {
		t.Errorf("eiffel enqueue+dequeue allocates %.2f objects/op, want 0", avg)
	}
}

// TestBenchSmokeSchedScale runs the scale sweep at the 10k and 100k
// tiers and enforces the tentpole shape: Eiffel's per-packet cost must
// not grow with the live-flow count (<=2x from 10k to 100k) and the
// steady state must not allocate. Gated like the other smoke tests;
// run via `make bench-smoke`.
func TestBenchSmokeSchedScale(t *testing.T) {
	if os.Getenv("EISR_BENCH_SMOKE") == "" {
		t.Skip("set EISR_BENCH_SMOKE=1 to run benchmark smoke tests")
	}
	rows := RunSchedScale(SchedScaleOptions{Tiers: []int{10_000, 100_000}})
	t.Logf("\n%s", SchedScaleTable(rows))
	var small, big *SchedScaleRow
	for i := range rows {
		r := &rows[i]
		if r.Scheduler != "Eiffel" {
			continue
		}
		switch r.Flows {
		case 10_000:
			small = r
		case 100_000:
			big = r
		}
	}
	if small == nil || big == nil {
		t.Fatal("sweep missing Eiffel tiers")
	}
	if big.AllocsPerOp > 0.01 {
		t.Errorf("eiffel steady state allocates %.3f objects/op at 100k flows, want 0", big.AllocsPerOp)
	}
	lo := small.EnqNs + small.DeqNs
	hi := big.EnqNs + big.DeqNs
	if hi > 2*lo {
		t.Errorf("eiffel per-packet cost grew %.0f -> %.0f ns/op from 10k to 100k flows (limit 2x)", lo, hi)
	}
}
