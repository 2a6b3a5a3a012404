package aiu

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/routerplugins/eisr/internal/pkt"
)

// genFilter draws a structured random filter (quick's Generator hook).
func genFilter(rng *rand.Rand) Filter {
	f := MatchAll()
	switch rng.Intn(3) {
	case 1:
		f.Src = AddrIn(pkt.PrefixFrom(pkt.AddrV4(rng.Uint32()), rng.Intn(33)))
	case 2:
		var b [16]byte
		rng.Read(b[:])
		f.Src = AddrIn(pkt.PrefixFrom(pkt.AddrFrom16(b), rng.Intn(129)))
	}
	switch rng.Intn(3) {
	case 1:
		f.Dst = AddrIn(pkt.PrefixFrom(pkt.AddrV4(rng.Uint32()), rng.Intn(33)))
	case 2:
		var b [16]byte
		rng.Read(b[:])
		f.Dst = AddrIn(pkt.PrefixFrom(pkt.AddrFrom16(b), rng.Intn(129)))
	}
	if rng.Intn(2) == 0 {
		f.Proto = ProtoIs(uint8(rng.Intn(256)))
	}
	if rng.Intn(2) == 0 {
		f.SrcPort = Ports(uint16(rng.Intn(65536)), uint16(rng.Intn(65536)))
	}
	if rng.Intn(2) == 0 {
		f.DstPort = Ports(uint16(rng.Intn(65536)), uint16(rng.Intn(65536)))
	}
	if rng.Intn(3) == 0 {
		f.InIf = IfIs(int32(rng.Intn(16)))
	}
	return f
}

// quickFilter wraps Filter for quick.Value generation.
type quickFilter struct{ F Filter }

// Generate implements quick.Generator.
func (quickFilter) Generate(rng *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(quickFilter{F: genFilter(rng)})
}

// TestQuickFilterParsePrintRoundTrip: String followed by ParseFilter is
// the identity on arbitrary structured filters.
func TestQuickFilterParsePrintRoundTrip(t *testing.T) {
	f := func(qf quickFilter) bool {
		parsed, err := ParseFilter(qf.F.String())
		if err != nil {
			return false
		}
		return parsed == qf.F
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMoreSpecificAntisymmetric: the specificity order is
// antisymmetric and self-equal.
func TestQuickMoreSpecificAntisymmetric(t *testing.T) {
	f := func(a, b quickFilter) bool {
		if a.F.moreSpecific(a.F) != 0 {
			return false
		}
		return a.F.moreSpecific(b.F) == -b.F.moreSpecific(a.F)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickFlowTableLookupAfterInsert: any inserted key is found until
// removed, and never found after.
func TestQuickFlowTableLookupAfterInsert(t *testing.T) {
	ft := NewFlowTable(16, 1<<16, 1)
	now := pkt.Nanotime()
	f := func(src, dst uint32, proto uint8, sp, dp uint16, inIf int32) bool {
		k := pkt.Key{Src: pkt.AddrV4(src), Dst: pkt.AddrV4(dst), Proto: proto, SrcPort: sp, DstPort: dp, InIf: inIf}
		ft.Insert(k, now, nil)
		if ft.Lookup(k, now, nil) == nil {
			return false
		}
		if !ft.Remove(k) {
			return false
		}
		return ft.Lookup(k, now, nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if ft.Len() != 0 {
		t.Errorf("table not empty after property run: %d", ft.Len())
	}
}

// TestQuickHashStability: the flow hash is a pure function and respects
// key equality (same key, same hash; differing InIf does not change the
// five-tuple hash), so a flow keeps its shard and worker on every link.
func TestQuickHashStability(t *testing.T) {
	f := func(src, dst uint32, proto uint8, sp, dp uint16, if1, if2 int32) bool {
		k1 := pkt.Key{Src: pkt.AddrV4(src), Dst: pkt.AddrV4(dst), Proto: proto, SrcPort: sp, DstPort: dp, InIf: if1}
		k2 := k1
		k2.InIf = if2
		return pkt.FlowHash(k1) == pkt.FlowHash(k2) && pkt.FlowHash(k1) == pkt.FlowHash(k1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
