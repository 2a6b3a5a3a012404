package ipsec

import (
	"bytes"
	"testing"

	"github.com/routerplugins/eisr/internal/pkt"
)

func pairSA(t *testing.T) (tx, rx *SA) {
	t.Helper()
	gw1 := pkt.MustParseAddr("192.0.2.1")
	gw2 := pkt.MustParseAddr("198.51.100.1")
	secret := []byte("shared-secret")
	// Both ends derive the same keys from (secret, spi).
	return NewSA(0x1001, gw1, gw2, secret), NewSA(0x1001, gw1, gw2, secret)
}

func innerUDP(t *testing.T) []byte {
	t.Helper()
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.1.0.5"), Dst: pkt.MustParseAddr("10.2.0.9"),
		SrcPort: 5000, DstPort: 6000, Payload: []byte("confidential payload"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSealOpenRoundTrip(t *testing.T) {
	tx, rx := pairSA(t)
	inner := innerUDP(t)
	outer, err := tx.Seal(inner, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Outer header is ESP between the gateways.
	oh, err := pkt.ParseIPv4(outer)
	if err != nil {
		t.Fatal(err)
	}
	if oh.Protocol != pkt.ProtoESP {
		t.Errorf("outer protocol = %d", oh.Protocol)
	}
	if oh.Src != tx.Local || oh.Dst != tx.Peer {
		t.Errorf("outer addresses %s -> %s", oh.Src, oh.Dst)
	}
	// Ciphertext must not contain the plaintext payload.
	if bytes.Contains(outer, []byte("confidential")) {
		t.Error("payload visible in ESP packet")
	}
	got, err := rx.Open(outer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inner) {
		t.Error("inner datagram corrupted through the tunnel")
	}
}

func TestSealOpenIPv6Tunnel(t *testing.T) {
	gw1 := pkt.MustParseAddr("2001:db8:0:1::1")
	gw2 := pkt.MustParseAddr("2001:db8:0:2::1")
	tx := NewSA(7, gw1, gw2, []byte("s"))
	rx := NewSA(7, gw1, gw2, []byte("s"))
	inner := innerUDP(t) // v4-in-v6
	outer, err := tx.Seal(inner, 64)
	if err != nil {
		t.Fatal(err)
	}
	if outer[0]>>4 != 6 {
		t.Fatal("outer not IPv6")
	}
	got, err := rx.Open(outer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inner) {
		t.Error("v4-in-v6 tunnel corrupted datagram")
	}
}

func TestOpenRejectsTamper(t *testing.T) {
	tx, rx := pairSA(t)
	outer, _ := tx.Seal(innerUDP(t), 64)
	outer[len(outer)/2] ^= 0x40
	if _, err := rx.Open(outer); err != ErrAuth {
		t.Errorf("tampered packet error = %v, want ErrAuth", err)
	}
	if fails := rx.Stats().AuthFails; fails != 1 {
		t.Errorf("auth fails = %d", fails)
	}
}

func TestOpenRejectsWrongKeyAndSPI(t *testing.T) {
	tx, _ := pairSA(t)
	outer, _ := tx.Seal(innerUDP(t), 64)
	wrongKey := NewSA(0x1001, tx.Local, tx.Peer, []byte("other-secret"))
	if _, err := wrongKey.Open(outer); err != ErrAuth {
		t.Errorf("wrong key error = %v", err)
	}
	wrongSPI := NewSA(0x2002, tx.Local, tx.Peer, []byte("shared-secret"))
	if _, err := wrongSPI.Open(outer); err == nil {
		t.Error("wrong SPI accepted")
	}
}

func TestAntiReplay(t *testing.T) {
	tx, rx := pairSA(t)
	inner := innerUDP(t)
	p1, _ := tx.Seal(inner, 64)
	p2, _ := tx.Seal(inner, 64)
	if _, err := rx.Open(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(p2); err != nil {
		t.Fatal(err)
	}
	// Replaying either must fail.
	if _, err := rx.Open(p1); err != ErrReplay {
		t.Errorf("replay p1 error = %v", err)
	}
	if _, err := rx.Open(p2); err != ErrReplay {
		t.Errorf("replay p2 error = %v", err)
	}
	if replays := rx.Stats().ReplayHits; replays != 2 {
		t.Errorf("replay count = %d", replays)
	}
}

func TestAntiReplayOutOfOrderWithinWindow(t *testing.T) {
	tx, rx := pairSA(t)
	inner := innerUDP(t)
	var pkts [][]byte
	for i := 0; i < 10; i++ {
		p, _ := tx.Seal(inner, 64)
		pkts = append(pkts, p)
	}
	// Deliver 9, 3, 5, 0 — all within the 64-wide window.
	for _, idx := range []int{9, 3, 5, 0} {
		if _, err := rx.Open(pkts[idx]); err != nil {
			t.Errorf("in-window packet %d rejected: %v", idx, err)
		}
	}
	// 3 again is a replay.
	if _, err := rx.Open(pkts[3]); err != ErrReplay {
		t.Errorf("replay error = %v", err)
	}
}

func TestAntiReplayStaleBeyondWindow(t *testing.T) {
	tx, rx := pairSA(t)
	inner := innerUDP(t)
	first, _ := tx.Seal(inner, 64)
	var last []byte
	for i := 0; i < 70; i++ {
		last, _ = tx.Seal(inner, 64)
	}
	if _, err := rx.Open(last); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(first); err != ErrReplay {
		t.Errorf("stale packet error = %v", err)
	}
}

func TestSealPadding(t *testing.T) {
	tx, rx := pairSA(t)
	// Lengths around the 4-byte alignment boundary all round-trip.
	for extra := 0; extra < 8; extra++ {
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("10.0.0.2"),
			SrcPort: 1, DstPort: 2, Payload: make([]byte, extra),
		})
		if err != nil {
			t.Fatal(err)
		}
		outer, err := tx.Seal(data, 64)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rx.Open(outer)
		if err != nil {
			t.Fatalf("extra=%d: %v", extra, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("extra=%d: corrupted", extra)
		}
	}
}

func TestOpenGarbage(t *testing.T) {
	_, rx := pairSA(t)
	if _, err := rx.Open(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := rx.Open([]byte{0x45, 0, 0}); err == nil {
		t.Error("truncated accepted")
	}
	nonESP := innerUDP(t)
	if _, err := rx.Open(nonESP); err == nil {
		t.Error("non-ESP accepted")
	}
}
