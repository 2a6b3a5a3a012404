package aiu

import (
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

func newTestAIU(t *testing.T) *AIU {
	t.Helper()
	return New(Config{InitialFlows: 16, MaxFlows: 64},
		pcu.TypeSecurity, pcu.TypeSched)
}

// keyedPacket is a header-only packet carrying k, key and flow hash set.
func keyedPacket(k pkt.Key) *pkt.Packet {
	p := &pkt.Packet{InIf: k.InIf, OutIf: -1}
	p.SetKey(k)
	return p
}

func udpPacket(t *testing.T, src, dst string, sport, dport uint16, inIf int32) *pkt.Packet {
	t.Helper()
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr(src), Dst: pkt.MustParseAddr(dst),
		SrcPort: sport, DstPort: dport, Payload: []byte("payload"),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pkt.NewPacket(data, inIf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLookupGateThreePaths(t *testing.T) {
	a := newTestAIU(t)
	sec := &testInstance{name: "sec2"}
	drr := &testInstance{name: "drr0"}
	if _, err := a.Bind(pcu.TypeSecurity, MustParseFilter("10.0.0.0/8, *, UDP, *, *, *"), sec, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(pcu.TypeSched, MatchAll(), drr, nil); err != nil {
		t.Fatal(err)
	}
	now := time.Now()

	// First packet: slow path. The counter sees the full classification.
	p1 := udpPacket(t, "10.1.1.1", "20.2.2.2", 1000, 2000, 0)
	var c1 cycles.Counter
	inst, rec := a.LookupGate(p1, pcu.TypeSecurity, now, &c1)
	if inst != sec {
		t.Fatalf("first packet security instance = %v", inst)
	}
	if rec == nil || p1.FIX == nil {
		t.Fatal("flow record not installed / FIX not set")
	}
	if cached, first := a.Stats(); cached != 0 || first != 1 {
		t.Errorf("stats after first packet: cached=%d first=%d", cached, first)
	}

	// Same packet at the second gate: FIX path, exactly one access.
	var c2 cycles.Counter
	inst2, rec2 := a.LookupGate(p1, pcu.TypeSched, now, &c2)
	if inst2 != drr || rec2 != rec {
		t.Fatalf("second gate: inst=%v rec=%p want %p", inst2, rec2, rec)
	}
	if c2.Mem != 1 || c2.FnPtr != 0 {
		t.Errorf("FIX path cost = %d mem %d fnptr, want 1/0", c2.Mem, c2.FnPtr)
	}

	// Second packet of the flow: flow-table hit, no filter lookups.
	p2 := udpPacket(t, "10.1.1.1", "20.2.2.2", 1000, 2000, 0)
	var c3 cycles.Counter
	inst3, _ := a.LookupGate(p2, pcu.TypeSecurity, now, &c3)
	if inst3 != sec {
		t.Fatalf("cached packet instance = %v", inst3)
	}
	if cached, _ := a.Stats(); cached != 1 {
		t.Errorf("cached lookups = %d", cached)
	}
	// Cache-hit cost: 1 hash fnptr + >=1 chain access; far below the
	// slow path which paid BMP probes.
	if c3.FnPtr != 1 {
		t.Errorf("cache hit fnptr = %d", c3.FnPtr)
	}
	if c3.Mem >= c1.Mem {
		t.Errorf("cache hit cost %d not below slow path %d", c3.Mem, c1.Mem)
	}
}

func TestLookupGateNoMatch(t *testing.T) {
	a := newTestAIU(t)
	sec := &testInstance{name: "sec"}
	if _, err := a.Bind(pcu.TypeSecurity, MustParseFilter("10.0.0.0/8, *, UDP, *, *, *"), sec, nil); err != nil {
		t.Fatal(err)
	}
	p := udpPacket(t, "172.16.0.1", "20.2.2.2", 1, 2, 0)
	inst, rec := a.LookupGate(p, pcu.TypeSecurity, time.Now(), nil)
	if inst != nil {
		t.Errorf("unmatched flow returned instance %v", inst)
	}
	if rec == nil {
		t.Error("unmatched flow should still be cached (negative cache)")
	}
}

func TestBindFlushesAffectedFlows(t *testing.T) {
	a := newTestAIU(t)
	old := &testInstance{name: "old"}
	a.Bind(pcu.TypeSecurity, MatchAll(), old, nil)
	p := udpPacket(t, "10.1.1.1", "20.2.2.2", 7, 8, 0)
	a.LookupGate(p, pcu.TypeSecurity, time.Now(), nil)

	// Install a more specific filter for the same flow; the cached
	// record must be invalidated so the next packet reclassifies.
	newer := &testInstance{name: "new"}
	a.Bind(pcu.TypeSecurity, MustParseFilter("10.1.1.1, 20.2.2.2, UDP, 7, 8, *"), newer, nil)
	p2 := udpPacket(t, "10.1.1.1", "20.2.2.2", 7, 8, 0)
	inst, _ := a.LookupGate(p2, pcu.TypeSecurity, time.Now(), nil)
	if inst != newer {
		t.Errorf("after bind, instance = %v, want the more specific one", inst)
	}
}

func TestUnbindInstanceRemovesEverything(t *testing.T) {
	a := newTestAIU(t)
	inst := &testInstance{name: "x"}
	a.Bind(pcu.TypeSecurity, MustParseFilter("10.0.0.0/8, *, *, *, *, *"), inst, nil)
	a.Bind(pcu.TypeSched, MatchAll(), inst, nil)
	p := udpPacket(t, "10.1.1.1", "20.2.2.2", 7, 8, 0)
	a.LookupGate(p, pcu.TypeSecurity, time.Now(), nil)

	if n := a.UnbindInstance(inst); n != 2 {
		t.Fatalf("UnbindInstance removed %d filters, want 2", n)
	}
	ft, _ := a.Table(pcu.TypeSecurity)
	if len(ft.Records()) != 0 {
		t.Error("security table not empty")
	}
	p2 := udpPacket(t, "10.1.1.1", "20.2.2.2", 7, 8, 0)
	if got, _ := a.LookupGate(p2, pcu.TypeSecurity, time.Now(), nil); got != nil {
		t.Errorf("freed instance still returned: %v", got)
	}
}

func TestUnbindSingleRecord(t *testing.T) {
	a := newTestAIU(t)
	inst := &testInstance{name: "y"}
	rec, _ := a.Bind(pcu.TypeSecurity, MustParseFilter("10.0.0.0/8, *, *, *, *, *"), inst, nil)
	keep, _ := a.Bind(pcu.TypeSecurity, MustParseFilter("11.0.0.0/8, *, *, *, *, *"), inst, nil)
	if err := a.Unbind(rec); err != nil {
		t.Fatal(err)
	}
	if err := a.Unbind(rec); err == nil {
		t.Error("double Unbind should fail")
	}
	ft, _ := a.Table(pcu.TypeSecurity)
	if got := ft.Records(); len(got) != 1 || got[0] != keep {
		t.Errorf("records after unbind: %v", got)
	}
}

func TestClassifyKeyDirect(t *testing.T) {
	a := newTestAIU(t)
	inst := &testInstance{name: "z"}
	a.Bind(pcu.TypeSched, MustParseFilter("*, *, UDP, *, 53, *"), inst, nil)
	k := pkt.Key{Src: pkt.AddrV4(1), Dst: pkt.AddrV4(2), Proto: pkt.ProtoUDP, DstPort: 53}
	fr := a.ClassifyKey(pcu.TypeSched, k, nil)
	if fr == nil || fr.Instance != inst {
		t.Fatalf("ClassifyKey = %v", fr)
	}
	if fr2 := a.ClassifyKey(pcu.TypeSecurity, k, nil); fr2 != nil {
		t.Errorf("empty gate matched %v", fr2)
	}
	if fr3 := a.ClassifyKey(pcu.Type(99), k, nil); fr3 != nil {
		t.Errorf("unknown gate matched %v", fr3)
	}
}

func TestLookupGateUnknownGate(t *testing.T) {
	a := newTestAIU(t)
	p := udpPacket(t, "10.1.1.1", "20.2.2.2", 7, 8, 0)
	if inst, rec := a.LookupGate(p, pcu.Type(42), time.Now(), nil); inst != nil || rec != nil {
		t.Error("unknown gate should return nil")
	}
}

func TestGateSoftState(t *testing.T) {
	a := newTestAIU(t)
	inst := &testInstance{name: "drr"}
	a.Bind(pcu.TypeSched, MatchAll(), inst, nil)
	p := udpPacket(t, "10.1.1.1", "20.2.2.2", 7, 8, 0)
	_, rec := a.LookupGate(p, pcu.TypeSched, time.Now(), nil)
	slot, _ := a.Slot(pcu.TypeSched)
	rec.Bind(slot).Private = "queue#1"
	// A later packet of the same flow sees the soft state.
	p2 := udpPacket(t, "10.1.1.1", "20.2.2.2", 7, 8, 0)
	_, rec2 := a.LookupGate(p2, pcu.TypeSched, time.Now(), nil)
	if rec2 != rec || rec2.Bind(slot).Private != "queue#1" {
		t.Error("per-flow soft state lost")
	}
}
