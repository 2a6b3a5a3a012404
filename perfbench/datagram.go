package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/routerplugins/eisr/internal/pkt"
)

// Every benchmark packet is a 64-byte IPv4/UDP datagram — the smallest
// size, where per-packet cost dominates. The UDP checksum is left zero
// so the harness can stamp a sequence number into a prebuilt datagram
// without recomputing anything; the router still verifies, decrements
// and re-checksums the IPv4 header.
const (
	datagramLen = 64
	sendTTL     = 64
	payloadOff  = pkt.IPv4HeaderLen + pkt.UDPHeaderLen
	seqOff      = payloadOff + 4
	benchMagic  = 0x45495352 // "EISR"
)

// flowSet holds one prebuilt datagram per flow, back to back in one
// arena, so the load loop stamps and sends without allocating.
type flowSet struct {
	arena []byte
	n     int
}

// buildFlows builds n datagrams; spec gives flow i's addresses and ports.
func buildFlows(n int, spec func(i int) pkt.UDPSpec) (*flowSet, error) {
	fs := &flowSet{arena: make([]byte, n*datagramLen), n: n}
	payload := make([]byte, datagramLen-payloadOff)
	binary.BigEndian.PutUint32(payload, benchMagic)
	for i := 0; i < n; i++ {
		s := spec(i)
		s.TTL, s.Payload, s.OmitChecksum = sendTTL, payload, true
		d, err := pkt.BuildUDP(s)
		if err != nil {
			return nil, fmt.Errorf("flow %d: %w", i, err)
		}
		if len(d) != datagramLen {
			return nil, fmt.Errorf("flow %d: built %d bytes, want %d", i, len(d), datagramLen)
		}
		copy(fs.datagram(i), d)
	}
	return fs, nil
}

// datagram returns flow i's datagram (a view into the arena).
func (fs *flowSet) datagram(i int) []byte {
	return fs.arena[i*datagramLen : (i+1)*datagramLen : (i+1)*datagramLen]
}

// key returns flow i's six-tuple as it arrives on interface inIf.
func (fs *flowSet) key(i int, inIf int32) (pkt.Key, error) {
	return pkt.ExtractKey(fs.datagram(i), inIf)
}

// stampSeq writes a sequence number into a datagram's payload.
func stampSeq(d []byte, seq uint64) { binary.BigEndian.PutUint64(d[seqOff:], seq) }

// Verification failures. Preallocated: the sink checks every packet and
// must not allocate, even when a check fails.
var (
	errShape    = errors.New("not a 64-byte IPv4/UDP benchmark datagram")
	errChecksum = errors.New("bad IPv4 header checksum")
	errTTL      = errors.New("TTL not decremented exactly once")
	errSeq      = errors.New("sequence number not outstanding (lost, duplicated or corrupted)")
)

// verifier tracks the packets in flight by sequence number and checks
// each delivered datagram against them: slot i holds seq+1 of the
// outstanding packet whose seq maps to i (0 when free).
type verifier struct {
	tags []uint64
	mask uint64
}

// newVerifier sizes the table for up to slots packets in flight (a power
// of two). A packet still outstanding when its slot is reused is
// reported by the ledger as never delivered.
func newVerifier(slots int) *verifier {
	return &verifier{tags: make([]uint64, slots), mask: uint64(slots - 1)}
}

// expect registers seq as sent.
func (v *verifier) expect(seq uint64) { v.tags[seq&v.mask] = seq + 1 }

// check verifies one delivered datagram: the benchmark's shape, a valid
// IPv4 header checksum, a TTL decremented exactly once, and a sequence
// number that is outstanding. On success the packet is retired.
func (v *verifier) check(b []byte) error {
	if len(b) != datagramLen || b[0] != 0x45 || b[9] != pkt.ProtoUDP ||
		int(binary.BigEndian.Uint16(b[2:4])) != datagramLen ||
		binary.BigEndian.Uint32(b[payloadOff:]) != benchMagic {
		return errShape
	}
	if !ipv4HeaderValid(b[:pkt.IPv4HeaderLen]) {
		return errChecksum
	}
	if b[8] != sendTTL-1 {
		return errTTL
	}
	i := binary.BigEndian.Uint64(b[seqOff:]) & v.mask
	if v.tags[i] != binary.BigEndian.Uint64(b[seqOff:])+1 {
		return errSeq
	}
	v.tags[i] = 0
	return nil
}

// ipv4HeaderValid checks the one's-complement header checksum. It is
// written out here rather than borrowed from the router, so a checksum
// bug in the router cannot hide from its own verifier.
func ipv4HeaderValid(h []byte) bool {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		sum += uint32(h[i])<<8 | uint32(h[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return sum == 0xffff
}
