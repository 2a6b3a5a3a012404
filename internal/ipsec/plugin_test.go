package ipsec

import (
	"testing"
	"testing/quick"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sched"
)

func TestQuickSealOpenRoundTrip(t *testing.T) {
	tx, rx := pairSA(t)
	f := func(payload []byte, sport, dport uint16) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr("10.1.0.1"), Dst: pkt.MustParseAddr("10.2.0.1"),
			SrcPort: sport, DstPort: dport, Payload: payload,
		})
		if err != nil {
			return false
		}
		outer, err := tx.Seal(data, 64)
		if err != nil {
			return false
		}
		inner, err := rx.Open(outer)
		if err != nil {
			return false
		}
		return string(inner) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// pluginRig wires the plugin against an AIU (no router core needed for
// callback-path tests).
func pluginRig(t *testing.T) (*Plugin, *aiu.AIU) {
	t.Helper()
	a := aiu.New(aiu.Config{InitialFlows: 16}, pcu.TypeSecurity)
	return NewPlugin(a, nil), a
}

func saArgs(filter string) map[string]string {
	return map[string]string{
		"filter": filter, "spi": "0x2001",
		"local": "192.0.2.1", "peer": "198.51.100.1",
		"secret": "deadbeef",
	}
}

func TestPluginLifecycle(t *testing.T) {
	pl, a := pluginRig(t)
	msg := &pcu.Message{Kind: pcu.MsgCreateInstance, Args: map[string]string{"mode": "encrypt", "ttl": "32"}}
	if err := pl.Callback(msg); err != nil {
		t.Fatal(err)
	}
	inst := msg.Reply.(*Instance)
	if inst.InstanceName() == "" || !inst.encrypt || inst.ttl != 32 {
		t.Errorf("instance: %+v", inst)
	}

	reg := &pcu.Message{Kind: pcu.MsgRegisterInstance, Instance: inst, Args: saArgs("10.1.0.0/16, 10.2.0.0/16, *, *, *, *")}
	if err := pl.Callback(reg); err != nil {
		t.Fatal(err)
	}
	rec := reg.Reply.(*aiu.FilterRecord)
	if _, ok := rec.Private.(*SA); !ok {
		t.Error("binding has no SA")
	}

	dereg := &pcu.Message{Kind: pcu.MsgDeregisterInstance, Instance: inst, Args: map[string]string{"filter": "10.1.0.0/16, 10.2.0.0/16, *, *, *, *"}}
	if err := pl.Callback(dereg); err != nil {
		t.Fatal(err)
	}
	ft, _ := a.Table(pcu.TypeSecurity)
	if len(ft.Records()) != 0 {
		t.Error("binding survived deregister")
	}
	if err := pl.Callback(&pcu.Message{Kind: pcu.MsgFreeInstance, Instance: inst}); err != nil {
		t.Fatal(err)
	}
}

func TestPluginCallbackErrors(t *testing.T) {
	pl, _ := pluginRig(t)
	cases := []*pcu.Message{
		{Kind: pcu.MsgCreateInstance, Args: map[string]string{"mode": "sideways"}},
		{Kind: pcu.MsgCreateInstance, Args: map[string]string{"mode": "encrypt", "ttl": "0"}},
		{Kind: pcu.MsgRegisterInstance, Args: map[string]string{"filter": "*, *, *, *, *, *"}}, // no spi
		{Kind: pcu.MsgRegisterInstance, Args: saArgs("not a filter")},
		{Kind: pcu.MsgDeregisterInstance, Args: map[string]string{"filter": "*, *, *, *, *, *"}},
	}
	for i, msg := range cases {
		if err := pl.Callback(msg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Bad secret / spi / addresses.
	for _, mut := range []func(m map[string]string){
		func(m map[string]string) { m["secret"] = "zz-not-hex" },
		func(m map[string]string) { m["secret"] = "" },
		func(m map[string]string) { m["spi"] = "lots" },
		func(m map[string]string) { m["local"] = "nope" },
		func(m map[string]string) { m["peer"] = "nope" },
	} {
		args := saArgs("*, *, *, *, *, *")
		mut(args)
		if err := pl.Callback(&pcu.Message{Kind: pcu.MsgRegisterInstance, Args: args}); err == nil {
			t.Errorf("bad args accepted: %v", args)
		}
	}
}

func TestInstanceHandlePacketTransforms(t *testing.T) {
	pl, a := pluginRig(t)
	// Encrypt instance bound to site traffic.
	cm := &pcu.Message{Kind: pcu.MsgCreateInstance, Args: map[string]string{"mode": "encrypt"}}
	pl.Callback(cm)
	enc := cm.Reply.(*Instance)
	reg := &pcu.Message{Kind: pcu.MsgRegisterInstance, Instance: enc, Args: saArgs("10.1.0.0/16, 10.2.0.0/16, *, *, *, *")}
	if err := pl.Callback(reg); err != nil {
		t.Fatal(err)
	}

	data, _ := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.1.0.5"), Dst: pkt.MustParseAddr("10.2.0.9"),
		SrcPort: 1, DstPort: 2, Payload: []byte("pp"),
	})
	p, _ := pkt.NewPacket(append([]byte(nil), data...), 0)
	inst, _ := a.LookupGate(p, pcu.TypeSecurity, pkt.Nanotime(), nil)
	if inst != pcu.Instance(enc) {
		t.Fatalf("gate resolved %v", inst)
	}
	if err := enc.HandlePacket(p); err != nil {
		t.Fatal(err)
	}
	if p.Key.Proto != pkt.ProtoESP || p.Key.Dst != pkt.MustParseAddr("198.51.100.1") {
		t.Errorf("outer key after encrypt: %s", p.Key)
	}
	if p.FIX == nil {
		t.Error("encrypt should keep the FIX for downstream QoS")
	}

	// Decrypt instance on the peer side.
	dm := &pcu.Message{Kind: pcu.MsgCreateInstance, Args: map[string]string{"mode": "decrypt"}}
	pl.Callback(dm)
	dec := dm.Reply.(*Instance)
	reg2 := &pcu.Message{Kind: pcu.MsgRegisterInstance, Instance: dec, Args: saArgs("192.0.2.1, 198.51.100.1, 50, *, *, *")}
	if err := pl.Callback(reg2); err != nil {
		t.Fatal(err)
	}
	q, _ := pkt.NewPacket(p.Data, 1)
	if got, _ := a.LookupGate(q, pcu.TypeSecurity, pkt.Nanotime(), nil); got != pcu.Instance(dec) {
		t.Fatalf("decrypt gate resolved %v", got)
	}
	if err := dec.HandlePacket(q); err != nil {
		t.Fatal(err)
	}
	if string(q.Data) != string(data) {
		t.Error("tunnel did not restore the inner datagram")
	}
	if q.FIX != nil {
		t.Error("decrypt should clear the FIX so the inner flow reclassifies")
	}
	// A flow without an SA binding passes through untouched.
	other, _ := pkt.NewPacket(data, 5)
	rec := a.FlowTable().Insert(other.Key, pkt.Nanotime(), nil)
	other.FIX = rec
	if err := enc.HandlePacket(other); err != nil {
		t.Fatal(err)
	}
	if other.Key.Proto == pkt.ProtoESP {
		t.Error("unbound flow was encrypted")
	}
}

// TestPacketHashFollowsKey: every path that sets a packet's key stores
// the key's flow hash with it — Reset (receive), SetKey, the tunnel's
// re-key on encrypt and decap on decrypt, and ALTQ's own parse of an
// unparsed packet — so the shard, worker and queue choices that read
// p.Hash always describe the current key.
func TestPacketHashFollowsKey(t *testing.T) {
	check := func(stage string, p *pkt.Packet) {
		t.Helper()
		if !p.KeyValid || p.Hash != pkt.FlowHash(p.Key) {
			t.Errorf("%s: key %v (valid %v) carries hash %#x, want %#x", stage, p.Key, p.KeyValid, p.Hash, pkt.FlowHash(p.Key))
		}
	}
	pl, a := pluginRig(t)
	enc, dec := newTunnelInstance(t, pl, "encrypt", "10.1.0.0/16, 10.2.0.0/16, *, *, *, *"),
		newTunnelInstance(t, pl, "decrypt", "192.0.2.1, 198.51.100.1, 50, *, *, *")
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.1.0.5"), Dst: pkt.MustParseAddr("10.2.0.9"),
		SrcPort: 1, DstPort: 2, Payload: []byte("pp"),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pkt.NewPacket(append([]byte(nil), data...), 0)
	if err != nil {
		t.Fatal(err)
	}
	check("Reset", p)
	inner := p.Hash

	a.LookupGate(p, pcu.TypeSecurity, pkt.Nanotime(), nil)
	if err := enc.HandlePacket(p); err != nil {
		t.Fatal(err)
	}
	check("encrypt", p)
	if p.Hash == inner {
		t.Error("encrypt kept the inner flow's hash")
	}

	q, err := pkt.NewPacket(p.Data, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.LookupGate(q, pcu.TypeSecurity, pkt.Nanotime(), nil)
	if err := dec.HandlePacket(q); err != nil {
		t.Fatal(err)
	}
	check("decap", q)
	if q.Hash != inner {
		t.Errorf("decap hash %#x, want the inner flow's %#x", q.Hash, inner)
	}

	var r pkt.Packet
	r.SetKey(q.Key)
	check("SetKey", &r)

	raw := &pkt.Packet{Data: append([]byte(nil), data...), OutIf: -1}
	if err := sched.NewALTQDRR(8, 1500).Enqueue(raw); err != nil {
		t.Fatal(err)
	}
	check("altq", raw)
}

// newTunnelInstance creates an ipsec instance in mode and registers it
// for filter with the test SA.
func newTunnelInstance(t *testing.T, pl *Plugin, mode, filter string) *Instance {
	t.Helper()
	cm := &pcu.Message{Kind: pcu.MsgCreateInstance, Args: map[string]string{"mode": mode}}
	if err := pl.Callback(cm); err != nil {
		t.Fatal(err)
	}
	inst := cm.Reply.(*Instance)
	reg := &pcu.Message{Kind: pcu.MsgRegisterInstance, Instance: inst, Args: saArgs(filter)}
	if err := pl.Callback(reg); err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestOpenCountsEachRefusalOnce feeds a decrypt instance one packet of
// every kind Open meets — a good one, a forged one, a replay, a
// truncated ESP packet, another SA's packet, a packet that is not ESP
// and one whose decrypted datagram does not match its next header —
// and checks, through the instance's stats reply, that each moves
// exactly one counter of its SA and that every refused one is dropped.
func TestOpenCountsEachRefusalOnce(t *testing.T) {
	pl, a := pluginRig(t)
	dec := newTunnelInstance(t, pl, "decrypt", "192.0.2.1, 198.51.100.1, *, *, *, *")
	local, peer := pkt.MustParseAddr("192.0.2.1"), pkt.MustParseAddr("198.51.100.1")
	secret := []byte{0xde, 0xad, 0xbe, 0xef}
	tx := NewSA(0x2001, local, peer, secret)
	inner := innerUDP(t)

	good, err := tx.Seal(inner, 64)
	if err != nil {
		t.Fatal(err)
	}
	forged, _ := tx.Seal(inner, 64)
	forged[len(forged)-1] ^= 0x01
	truncated := make([]byte, pkt.IPv4HeaderLen+8)
	if _, err := (&pkt.IPv4Header{TotalLen: uint16(len(truncated)), TTL: 64, Protocol: pkt.ProtoESP,
		Src: local, Dst: peer}).Marshal(truncated); err != nil {
		t.Fatal(err)
	}
	otherSA, _ := NewSA(0x2002, local, peer, secret).Seal(inner, 64)
	notESP, _ := pkt.BuildUDP(pkt.UDPSpec{Src: local, Dst: peer, SrcPort: 500, DstPort: 500, Payload: []byte("ike")})
	badInner, _ := tx.seal(inner, nextHeaderIPv6, 64) // an IPv4 datagram labelled IPv6

	stats := func() SAStats {
		t.Helper()
		m := &pcu.Message{Kind: pcu.MsgCustom, Verb: "stats", Instance: dec}
		if err := pl.Callback(m); err != nil {
			t.Fatal(err)
		}
		s := m.Reply.([]SAStats)
		if len(s) != 1 || s[0].SPI != 0x2001 {
			t.Fatalf("stats reply %+v, want the one bound SA", s)
		}
		return s[0]
	}
	for _, c := range []struct {
		name string
		data []byte
		move func(s *SAStats)
	}{
		{"opened", good, func(s *SAStats) { s.Opened++ }},
		{"forged", forged, func(s *SAStats) { s.AuthFails++ }},
		{"replayed", good, func(s *SAStats) { s.ReplayHits++ }},
		{"truncated", truncated, func(s *SAStats) { s.Truncated++ }},
		{"other-spi", otherSA, func(s *SAStats) { s.BadSPI++ }},
		{"not-esp", notESP, func(s *SAStats) { s.NotESP++ }},
		{"bad-inner", badInner, func(s *SAStats) { s.BadInner++ }},
	} {
		want := stats()
		c.move(&want)
		p, err := pkt.NewPacket(append([]byte(nil), c.data...), 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if inst, _ := a.LookupGate(p, pcu.TypeSecurity, pkt.Nanotime(), nil); inst != pcu.Instance(dec) {
			t.Fatalf("%s: gate resolved %v", c.name, inst)
		}
		if err := dec.HandlePacket(p); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Drop != (c.name != "opened") {
			t.Errorf("%s: dropped = %v", c.name, p.Drop)
		}
		if got := stats(); got != want {
			t.Errorf("%s: counters %+v, want %+v", c.name, got, want)
		}
	}
}
