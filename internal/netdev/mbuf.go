package netdev

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/routerplugins/eisr/internal/pkt"
)

// The mbuf table's pages double in size: page k holds mbufPage0<<k
// slots, so a table that never grows past its first page costs one
// small allocation, and mbufPages pages number every 32-bit slot.
const (
	mbufPage0Bits = 4
	mbufPage0     = 1 << mbufPage0Bits
	mbufPages     = 32 - mbufPage0Bits + 1
)

// mbufPool is an interface's receive buffer pool: a table of mbufs that
// grows lazily, page by page, up to the pool depth, and a LIFO free list
// of their slot numbers, so the packet released last — the one still in
// cache — is the next one received into.
//
// Any goroutine may take and return mbufs without a lock; only making a
// page takes one (grow), at most once per page in the pool's life. The
// free list is a Treiber stack threaded through the slots' next links.
// Its head word holds the top slot (0 = empty) in the low 32 bits and a tag
// in the high 32 that every push and pop bumps: a pop that read a top
// and its next link, then lost the race to a pop and push of the same
// slot, fails its CAS on the tag instead of installing a stale link.
//
// Memory order: a slot's packet pointer is written only by the slot's
// holder — when made is claimed for it, when put empties it before the
// push, when get remakes it after the pop — and every later reader
// reached the slot through the RX ring, the holders' handoffs and a CAS
// on the free list's head, each of which orders it after that write.
// A page is published, once, by a store to its directory entry under
// grow.
type mbufPool struct {
	free  atomic.Uint64
	made  atomic.Uint32 // slots made so far; never above depth
	depth atomic.Uint32 // BufDepth; only grows
	pages [mbufPages]atomic.Pointer[mbufPage]
	grow  sync.Mutex
}

type mbufPage []mbufSlot

type mbufSlot struct {
	p    *pkt.Packet
	next atomic.Uint32 // the slot below this one on the free list
}

// slot returns slot s (s ≥ 1), which must have been made.
func (m *mbufPool) slot(s uint32) *mbufSlot {
	j := uint64(s) - 1 + mbufPage0
	k := bits.Len64(j) - mbufPage0Bits - 1
	return &(*m.pages[k].Load())[j-mbufPage0<<k]
}

// get hands out a free mbuf — the last one returned, remade if its slot
// came back empty — or makes one while fewer than depth exist; nil when
// the pool is exhausted.
func (m *mbufPool) get(mtu int) *pkt.Packet {
	for {
		h := m.free.Load()
		top := uint32(h)
		if top == 0 {
			break
		}
		s := m.slot(top)
		if m.free.CompareAndSwap(h, (h>>32+1)<<32|uint64(s.next.Load())) {
			if s.p == nil {
				s.p = &pkt.Packet{Data: make([]byte, 0, mtu), Mbuf: top}
			}
			return s.p
		}
	}
	for {
		n := m.made.Load()
		if n >= m.depth.Load() {
			return nil
		}
		if m.made.CompareAndSwap(n, n+1) {
			return m.newSlot(n+1, mtu)
		}
	}
}

// newSlot creates slot s's mbuf, and the slot's page if it is the first.
func (m *mbufPool) newSlot(s uint32, mtu int) *pkt.Packet {
	j := uint64(s) - 1 + mbufPage0
	k := bits.Len64(j) - mbufPage0Bits - 1
	pg := m.pages[k].Load()
	if pg == nil {
		m.grow.Lock()
		if pg = m.pages[k].Load(); pg == nil {
			fresh := make(mbufPage, mbufPage0<<k)
			pg = &fresh
			m.pages[k].Store(pg)
		}
		m.grow.Unlock()
	}
	p := &pkt.Packet{Data: make([]byte, 0, mtu), Mbuf: s}
	(*pg)[j-mbufPage0<<k].p = p
	return p
}

// put returns p's slot to the free list. A packet no slot of this pool
// holds — a heap fallback, or a copy of a pooled header — is left to the
// garbage collector, so the free list never holds more than depth. So is
// a pooled packet whose Data no longer spans an mtu-sized buffer
// (resliced, or replaced by a plugin): its slot goes back empty, and get
// makes the slot a fresh mbuf, so the pool keeps its depth and a foreign
// buffer is never reused.
func (m *mbufPool) put(p *pkt.Packet, mtu int) {
	if p.Mbuf == 0 || p.Mbuf > m.made.Load() {
		return
	}
	s := m.slot(p.Mbuf)
	if s.p != p {
		return
	}
	if cap(p.Data) < mtu {
		s.p = nil
	}
	for {
		h := m.free.Load()
		s.next.Store(uint32(h))
		if m.free.CompareAndSwap(h, (h>>32+1)<<32|uint64(p.Mbuf)) {
			return
		}
	}
}
