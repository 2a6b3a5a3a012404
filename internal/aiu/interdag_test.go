package aiu

import (
	"math/rand"
	"testing"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// identical filter sets on three gates, distinct instances.
func shareRig(share bool) (*AIU, []pcu.Type, []*testInstance) {
	gates := []pcu.Type{pcu.TypeOptions, pcu.TypeSecurity, pcu.TypeSched}
	a := New(Config{ShareIdenticalTables: share, InitialFlows: 16, MaxFlows: 1 << 16}, gates...)
	insts := []*testInstance{{name: "opt"}, {name: "sec"}, {name: "drr"}}
	specs := []string{
		"10.0.0.0/8, *, UDP, *, *, *",
		"10.1.0.0/16, *, UDP, *, 53, *",
		"*, *, TCP, *, *, *",
	}
	for gi, g := range gates {
		for _, s := range specs {
			a.Bind(g, MustParseFilter(s), insts[gi], nil)
		}
	}
	return a, gates, insts
}

func TestInterDAGSharingCorrectness(t *testing.T) {
	// With sharing on and off, the resolved instances must be
	// identical for any key — the optimization may not change results.
	on, gatesOn, _ := shareRig(true)
	off, gatesOff, _ := shareRig(false)
	rng := rand.New(rand.NewSource(9))
	now := pkt.Nanotime()
	for i := 0; i < 2000; i++ {
		k := pkt.Key{
			Src: pkt.AddrV4(0x0a000000 | rng.Uint32()&0x00ffffff), Dst: pkt.AddrV4(rng.Uint32()),
			Proto:   []uint8{pkt.ProtoUDP, pkt.ProtoTCP}[rng.Intn(2)],
			SrcPort: uint16(rng.Intn(100)), DstPort: uint16(rng.Intn(100)),
		}
		for gi := range gatesOn {
			p1 := keyedPacket(k)
			p2 := keyedPacket(k)
			i1, _ := on.LookupGate(p1, gatesOn[gi], now, nil)
			i2, _ := off.LookupGate(p2, gatesOff[gi], now, nil)
			n1, n2 := "", ""
			if i1 != nil {
				n1 = i1.InstanceName()
			}
			if i2 != nil {
				n2 = i2.InstanceName()
			}
			if n1 != n2 {
				t.Fatalf("key %s gate %d: shared=%q unshared=%q", k, gi, n1, n2)
			}
		}
	}
}

func TestInterDAGSharingSavesAccesses(t *testing.T) {
	on, gOn, _ := shareRig(true)
	off, gOff, _ := shareRig(false)
	now := pkt.Nanotime()
	k := pkt.Key{Src: pkt.MustParseAddr("10.1.2.3"), Dst: pkt.AddrV4(5), Proto: pkt.ProtoUDP, DstPort: 53}

	var cOn, cOff cycles.Counter
	pOn := keyedPacket(k)
	on.LookupGate(pOn, gOn[0], now, &cOn)
	pOff := keyedPacket(k)
	off.LookupGate(pOff, gOff[0], now, &cOff)
	if cOn.Total() >= cOff.Total() {
		t.Errorf("sharing did not reduce first-packet accesses: %d vs %d", cOn.Total(), cOff.Total())
	}
	t.Logf("first-packet accesses: shared=%d unshared=%d", cOn.Total(), cOff.Total())
}

func TestInterDAGSharingDistinctTablesUnaffected(t *testing.T) {
	// Gates with different filter sets must not share.
	gates := []pcu.Type{pcu.TypeSecurity, pcu.TypeSched}
	a := New(Config{ShareIdenticalTables: true, InitialFlows: 16}, gates...)
	sec := &testInstance{name: "sec"}
	drr := &testInstance{name: "drr"}
	a.Bind(pcu.TypeSecurity, MustParseFilter("10.0.0.0/8, *, *, *, *, *"), sec, nil)
	a.Bind(pcu.TypeSched, MustParseFilter("*, *, UDP, *, *, *"), drr, nil)
	now := pkt.Nanotime()
	k := pkt.Key{Src: pkt.MustParseAddr("10.9.9.9"), Dst: pkt.AddrV4(1), Proto: pkt.ProtoUDP}
	p := keyedPacket(k)
	i1, rec := a.LookupGate(p, pcu.TypeSecurity, now, nil)
	if i1 != sec {
		t.Fatalf("security instance = %v", i1)
	}
	slot, _ := a.Slot(pcu.TypeSched)
	if got := rec.Filter(slot).instance(); got != drr {
		t.Fatalf("sched instance = %v", got)
	}
}

func TestSpecSignature(t *testing.T) {
	mk := func(specs ...string) []*FilterRecord {
		out := make([]*FilterRecord, len(specs))
		for i, s := range specs {
			out[i] = &FilterRecord{ID: uint64(i), Filter: MustParseFilter(s)}
		}
		return out
	}
	a := mk("10.0.0.0/8, *, UDP, *, *, *", "*, *, TCP, *, *, *")
	b := mk("*, *, TCP, *, *, *", "10.0.0.0/8, *, UDP, *, *, *") // same set, other order
	c := mk("10.0.0.0/8, *, UDP, *, *, *")
	d := mk("10.0.0.0/8, *, UDP, *, *, *", "*, *, UDP, *, *, *")
	if specSignature(a) != specSignature(b) {
		t.Error("order changed the signature")
	}
	if specSignature(a) == specSignature(c) || specSignature(a) == specSignature(d) {
		t.Error("different sets share a signature")
	}
	if specSignature(nil) != specSignature(mk()) {
		t.Error("empty signatures differ")
	}
}
