package pkt

import (
	"testing"
	"unsafe"
)

// TestPacketSize pins the mbuf header's size: every received packet
// clears and fills one, so each byte is per-packet cost. A monotonic
// int64 Stamp (not a time.Time) brought it from 400 to 384 bytes, and
// carrying no drop text (the reason is a DropReason decided at the drop
// site, not a string on the packet) to 360.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 360 {
		t.Errorf("pkt.Packet is %d bytes, want at most 360", n)
	}
}
