package aiu

import (
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/pcu"
)

// Regression test for the FIX staleness race of the parallel engine:
// gate 1 looks the flow up and stores the FIX in the packet; before
// gate 2 dereferences it, the record is recycled for a *different*
// flow (table pressure, another worker's insert). Without the
// generation check the second gate would dispatch this packet through
// the new flow's instances; with it, the stale FIX is discarded and
// the packet reclassifies to its own flow's instance.
func TestLookupGateStaleFIXReclassifies(t *testing.T) {
	// A tiny single-shard table makes the forced recycle deterministic:
	// capacity 4, so four new flows evict everything.
	a := New(Config{InitialFlows: 4, MaxFlows: 4, FlowShards: 1},
		pcu.TypeSecurity, pcu.TypeSched)
	mine := &testInstance{name: "mine"}
	other := &testInstance{name: "other"}
	if _, err := a.Bind(pcu.TypeSecurity, MustParseFilter("10.0.0.0/8, *, UDP, *, *, *"), mine, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(pcu.TypeSched, MustParseFilter("10.0.0.0/8, *, UDP, *, *, *"), mine, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(pcu.TypeSched, MustParseFilter("172.16.0.0/12, *, UDP, *, *, *"), other, nil); err != nil {
		t.Fatal(err)
	}
	now := time.Now()

	// Gate 1: classify the victim packet, caching rec+gen in the packet.
	p := udpPacket(t, "10.1.1.1", "20.2.2.2", 1000, 2000, 0)
	inst, rec := a.LookupGate(p, pcu.TypeSecurity, now, nil)
	if inst != mine || rec == nil || p.FIX == nil {
		t.Fatalf("setup: inst=%v rec=%p", inst, rec)
	}

	// "Between gates": other flows recycle the whole table, including
	// the victim's record — which is reused for a 172.16/12 flow bound
	// to a different instance.
	for i := 0; i < 4; i++ {
		q := udpPacket(t, "172.16.0.9", "20.2.2.2", uint16(5000+i), 53, 0)
		a.LookupGate(q, pcu.TypeSched, now.Add(time.Duration(i+1)*time.Second), nil)
	}
	if got := rec.Generation(); got == p.FIXGen {
		t.Fatalf("recycle did not bump generation (still %d) — table too large for the test", got)
	}

	// Gate 2: the stale FIX must NOT dispatch through the recycled
	// record's new bindings; the packet reclassifies to its own
	// instance.
	inst2, rec2 := a.LookupGate(p, pcu.TypeSched, now.Add(10*time.Second), nil)
	if inst2 != mine {
		t.Fatalf("stale FIX dispatched to %v, want reclassification to %v", inst2, mine)
	}
	if rec2 == rec && p.FIXGen == 0 {
		t.Fatal("reclassification did not refresh the FIX generation")
	}
	// The refreshed FIX must be valid for further gates.
	slot, _ := a.Slot(pcu.TypeSched)
	if _, ok := rec2.FilterIfCurrent(slot, p.FIXGen); !ok {
		t.Error("refreshed FIX fails its own generation check")
	}
}
