package aiu

import (
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// Non-first IPv4 fragments carry no transport header, so their keys
// zero the ports and they classify on addresses and protocol alone —
// they land in a *different* flow than the first fragment. This test
// round-trips a datagram through FragmentIPv4 and verifies both halves
// of that contract against the classifier: an address-scoped filter
// catches every fragment, while a port-specific filter sees only the
// first.
func TestClassifyFragmentedDatagram(t *testing.T) {
	a := newTestAIU(t)
	wild := &testInstance{name: "addr-wild"}
	portOnly := &testInstance{name: "port-4242"}
	if _, err := a.Bind(pcu.TypeSecurity, MustParseFilter("10.0.0.0/8, *, UDP, *, *, *"), wild, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(pcu.TypeSched, MustParseFilter("10.0.0.0/8, *, UDP, 4242, *, *"), portOnly, nil); err != nil {
		t.Fatal(err)
	}

	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.9.9.9"), Dst: pkt.MustParseAddr("20.2.2.2"),
		SrcPort: 4242, DstPort: 53, Payload: make([]byte, 3000),
	})
	if err != nil {
		t.Fatal(err)
	}
	frags, err := pkt.FragmentIPv4(data, 576)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("fragments = %d, want several", len(frags))
	}

	now := pkt.Nanotime()
	for i, f := range frags {
		k, err := pkt.ExtractKey(f, 0)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if i == 0 {
			if k.SrcPort != 4242 || k.DstPort != 53 {
				t.Fatalf("first fragment lost its ports: %s", k)
			}
		} else if k.SrcPort != 0 || k.DstPort != 0 {
			t.Fatalf("non-first fragment %d has ports: %s", i, k)
		}

		p, err := pkt.NewPacket(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if inst, _ := a.LookupGate(p, pcu.TypeSecurity, now, nil); inst != wild {
			t.Errorf("fragment %d missed the address-scoped filter: %v", i, inst)
		}
		instSched, _ := a.LookupGate(p, pcu.TypeSched, now, nil)
		if i == 0 && instSched != portOnly {
			t.Errorf("first fragment missed the port filter: %v", instSched)
		}
		if i > 0 && instSched == portOnly {
			t.Errorf("non-first fragment %d matched the port filter", i)
		}
	}

	// Reassembly restores the transport header — and with it the
	// original flow key, so the rebuilt datagram classifies exactly like
	// the unfragmented one.
	re := pkt.NewReassembler(time.Minute)
	var whole []byte
	for _, f := range frags {
		out, err := re.Add(f, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			whole = out
		}
	}
	if whole == nil {
		t.Fatal("reassembly incomplete")
	}
	k, err := pkt.ExtractKey(whole, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.SrcPort != 4242 || k.DstPort != 53 {
		t.Fatalf("reassembled key lost ports: %s", k)
	}
	p, err := pkt.NewPacket(whole, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst, _ := a.LookupGate(p, pcu.TypeSched, now, nil); inst != portOnly {
		t.Errorf("reassembled datagram missed the port filter: %v", inst)
	}
}
