package pkt

import (
	"testing"
	"unsafe"
)

// TestPacketSize pins the mbuf header's size: every received packet
// clears and fills one, so each byte is per-packet cost. A monotonic
// int64 Stamp (not a time.Time) brought it from 400 to 384 bytes.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 384 {
		t.Errorf("pkt.Packet is %d bytes, want at most 384", n)
	}
}
