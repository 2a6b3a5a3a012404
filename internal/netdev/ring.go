package netdev

import (
	"sync/atomic"

	"github.com/routerplugins/eisr/internal/pkt"
)

// rxRing is an interface's receive descriptor ring: a bounded FIFO of
// packets that any goroutine may push to and any goroutine may pop from
// (D. Vyukov's bounded multi-producer multi-consumer queue). Producers
// are Receive's callers — Inject, a wire driver's RX goroutine, a
// connected peer's Transmit — and consumers are the pollers.
//
// Every cell carries a sequence number that says whose turn it is: seq
// == pos means the cell is free for the producer of position pos, and
// seq == pos+1 means it holds that position's packet for its consumer.
// A producer claims a position with one CAS on tail, writes the packet
// and publishes it with a store to seq; a consumer claims with one CAS
// on head, takes the packet and frees the cell for the producer one lap
// later. The seq store and load order the plain packet slot between the
// two, so neither side takes a lock or touches a channel.
//
// Positions are 32-bit and wrap: the cell count is a power of two, so it
// divides 2^32, and positions are compared by their int32 difference.
// The cell count is the ring depth rounded up to a power of two; depth
// caps how many packets the ring holds.
type rxRing struct {
	tail atomic.Uint32
	_    [60]byte // producers and consumers write different cache lines
	head atomic.Uint32

	mask  uint32
	depth uint32
	seq   []atomic.Uint32
	pkts  []*pkt.Packet
}

// init sizes the ring to hold up to depth packets (depth ≥ 1).
func (r *rxRing) init(depth int) {
	n := 1
	for n < depth {
		n <<= 1
	}
	r.mask, r.depth = uint32(n-1), uint32(depth)
	r.seq, r.pkts = make([]atomic.Uint32, n), make([]*pkt.Packet, n)
	for c := range r.seq {
		r.seq[c].Store(uint32(c))
	}
}

// push appends p; false when the ring is full. A ring whose next cell
// is still being emptied by a consumer one lap behind counts as full.
func (r *rxRing) push(p *pkt.Packet) bool {
	for {
		t := r.tail.Load()
		if int32(t-r.head.Load()) >= int32(r.depth) {
			return false
		}
		c := t & r.mask
		switch d := int32(r.seq[c].Load() - t); {
		case d == 0:
			if r.tail.CompareAndSwap(t, t+1) {
				r.pkts[c] = p
				r.seq[c].Store(t + 1)
				return true
			}
		case d < 0:
			return false
		}
		// Another producer took position t; try the next one.
	}
}

// pop takes the oldest packet; nil when the ring is empty (or its
// oldest packet is claimed but not yet published).
func (r *rxRing) pop() *pkt.Packet {
	for {
		h := r.head.Load()
		c := h & r.mask
		switch d := int32(r.seq[c].Load() - (h + 1)); {
		case d == 0:
			if r.head.CompareAndSwap(h, h+1) {
				p := r.pkts[c]
				r.pkts[c] = nil
				r.seq[c].Store(h + r.mask + 1)
				return p
			}
		case d < 0:
			return nil
		}
		// Another consumer took position h; try the next one.
	}
}
