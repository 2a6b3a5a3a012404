package netio

import (
	"fmt"
	"net"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
)

// A UDP socket that is read too slowly loses datagrams in the kernel,
// before any router counter sees them. So a link sizes its receive
// buffer to what a peer can burst at it, and reports the kernel's drops
// at that socket as eisr_drops_total{layer="kernel",reason="rcvbuf"}.
// A harness that sends into or reads from the wire is a hop too: the
// helpers here size its sockets the same way and pace its source to
// what they hold.

// truesizeOverhead bounds the kernel's per-datagram bookkeeping: the
// link-layer headroom and shared info that share the payload's
// allocation, and the socket-buffer header beside it.
const truesizeOverhead = 512

// DatagramTruesize bounds what the kernel charges a socket's receive
// buffer for one queued datagram of n bytes: the payload and its
// bookkeeping rounded up to the allocator's power-of-two size, plus the
// socket-buffer header. Linux 6.18 charges a 36 B datagram 832 B and a
// 1500 B one 2304 B; this returns 1536 and 2560.
func DatagramTruesize(n int) int {
	size := 1024
	for size < n+truesizeOverhead {
		size <<= 1
	}
	return size + truesizeOverhead
}

// RcvbufFor is the receive buffer a socket needs to absorb one full
// peer TX ring (DefaultTxRing) of the largest datagrams an mtu-sized
// interface sends, path-trace encapsulation included, while its reader
// is off the CPU.
func RcvbufFor(mtu int) int {
	return DefaultTxRing * DatagramTruesize(mtu+pkt.MaxPathEncap)
}

// SizeReadBuffer asks the kernel for want bytes of receive buffer on
// conn and returns the size it granted: less than want when the kernel
// clamped the request (Linux grants twice the request, up to twice
// net.core.rmem_max), 0 where the platform cannot say.
func SizeReadBuffer(conn *net.UDPConn, want int) (int, error) {
	if err := conn.SetReadBuffer(want); err != nil {
		return 0, fmt.Errorf("netio: receive buffer of %d B: %w", want, err)
	}
	return rcvbufGranted(conn)
}

// Window is the most datagrams of n bytes a source may keep in flight
// on a path whose sockets were granted the given receive buffers:
// three quarters of the smallest (the kernel may hold back up to a
// quarter of a UDP socket's read memory before freeing it) over
// DatagramTruesize(n), capped at limit and at least 1. A granted size
// of 0, where the platform cannot say, does not bound it.
func Window(n, limit int, granted ...int) int {
	w := limit
	for _, g := range granted {
		if g > 0 {
			w = min(w, g*3/4/DatagramTruesize(n))
		}
	}
	return max(w, 1)
}

// WindowStall bounds how long a full send window may go without one
// delivery. Past it a datagram was lost, and the window would never
// reopen.
const WindowStall = 2 * time.Second

// AwaitWindow blocks while sent-received fills the window. It fails,
// naming sent and received, once received has not moved for stall.
func AwaitWindow(sent int64, received func() int64, window int64, stall time.Duration) error {
	last, moved := received(), time.Now()
	for sent-last >= window {
		if time.Since(moved) > stall {
			return fmt.Errorf("no delivery for %v with the window full: sent %d, received %d", stall, sent, last)
		}
		time.Sleep(50 * time.Microsecond)
		if r := received(); r != last {
			last, moved = r, time.Now()
		}
	}
	return nil
}
