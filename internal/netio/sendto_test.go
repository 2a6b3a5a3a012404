//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd || solaris

package netio

import (
	"syscall"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// TestTransmitWireWouldBlockIsRingFull: a write the kernel would block
// (EAGAIN, injected through the sendto seam) returns ErrRingFull at
// once. The interface counts it once, as a TX ring-full drop; the link
// counts nothing; and the journal records the burst's onset once.
func TestTransmitWireWouldBlockIsRingFull(t *testing.T) {
	tel := telemetry.New()
	jr := tel.EnableJournal(64)
	ifc, l := newLink(t, netdev.Config{Name: "full0"}, Config{Peer: "127.0.0.1:9", Tel: tel})
	l.sendto = func(uintptr, []byte, syscall.Sockaddr) error { return syscall.EAGAIN }
	ifc.AttachDriver(l)
	l.Start()

	const sent = 3
	data := buildUDP(t, []byte("x"))
	for i := 0; i < sent; i++ {
		done := make(chan error, 1)
		go func() { done <- ifc.Transmit(&pkt.Packet{Data: data}) }()
		select {
		case err := <-done:
			if err != netdev.ErrRingFull {
				t.Fatalf("would-block write = %v, want ErrRingFull", err)
			}
		case <-time.After(time.Second):
			t.Fatal("TransmitWire waited on a would-block write")
		}
	}
	if s := ifc.Stats(); s.TxDropRing != sent || s.TxDrops != sent || s.TxPackets != 0 {
		t.Errorf("interface TX stats: %+v", s)
	}
	if s := l.Stats(); s.TxPackets != 0 || s.TxErrors != 0 {
		t.Errorf("the link counted a refused write: %+v", s)
	}
	bursts := 0
	for _, ev := range jr.Snapshot(0, 64) {
		if ev.Kind == telemetry.EvTxRingBurst {
			bursts++
		}
	}
	if bursts != 1 {
		t.Errorf("journaled %d tx-ring bursts, want 1", bursts)
	}
}
