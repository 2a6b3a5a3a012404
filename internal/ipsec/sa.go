// Package ipsec implements the IP security plugins of the paper (§3:
// "IP security functions are modularized and come in the form of
// plugins. A gate is inserted into the IP core code in place of the
// traditional call to the kernel function responsible for IPv6 security
// processing."), supporting the VPN application the introduction
// motivates.
//
// The wire format is ESP in tunnel mode (RFC 2406 framing): an outer IP
// header carrying protocol 50, then SPI, sequence number, IV, the
// encrypted inner datagram (with trailing pad/padlen/next-header), and a
// truncated HMAC ICV. Encryption is AES-128-CTR, authentication
// HMAC-SHA256-128, and inbound processing enforces a 64-packet
// anti-replay window.
package ipsec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/routerplugins/eisr/internal/pkt"
)

// ESP framing constants.
const (
	espHeaderLen = 8  // SPI + sequence
	espIVLen     = 16 // AES-CTR IV
	espICVLen    = 16 // HMAC-SHA256 truncated to 128 bits
)

// Inner-protocol numbers for the ESP next-header byte.
const (
	nextHeaderIPv4 = 4
	nextHeaderIPv6 = 41
)

// Errors returned by SA processing.
var (
	ErrAuth     = errors.New("ipsec: authentication failed")
	ErrReplay   = errors.New("ipsec: replayed or stale sequence number")
	ErrBadSPI   = errors.New("ipsec: SPI mismatch")
	ErrTooShort = errors.New("ipsec: truncated ESP packet")
)

// SA is a security association: the keys and endpoints of one direction
// of a tunnel. It is the filter-record hard state the security plugin
// binds to flows.
type SA struct {
	SPI     uint32
	Local   pkt.Addr // outer source (this gateway)
	Peer    pkt.Addr // outer destination (remote gateway)
	encKey  [16]byte
	authKey [32]byte

	mu     sync.Mutex
	seq    uint32
	window replayWindow
	stats  SAStats
}

// SAStats is an SA's counters. Every Open either opens the packet or
// counts it under exactly one of the failure reasons.
type SAStats struct {
	SPI        uint32
	Sealed     uint64
	Opened     uint64
	AuthFails  uint64 // the ICV did not verify
	ReplayHits uint64 // a replayed or stale sequence number
	Truncated  uint64 // too short for ESP, or a padding length past the payload
	BadSPI     uint64 // an ESP packet for another SA
	NotESP     uint64 // the outer header is not IPv4 or IPv6 carrying ESP
	BadInner   uint64 // the decrypted datagram does not match its next header
}

// NewSA derives an SA from a shared secret. Both tunnel endpoints derive
// identical keys from (secret, spi).
func NewSA(spi uint32, local, peer pkt.Addr, secret []byte) *SA {
	sa := &SA{SPI: spi, Local: local, Peer: peer}
	h := sha256.Sum256(append(append([]byte("eisr-esp-enc"), secret...), byte(spi>>24), byte(spi>>16), byte(spi>>8), byte(spi)))
	copy(sa.encKey[:], h[:16])
	a := sha256.Sum256(append(append([]byte("eisr-esp-auth"), secret...), byte(spi>>24), byte(spi>>16), byte(spi>>8), byte(spi)))
	sa.authKey = a
	return sa
}

// Seal encapsulates an inner datagram into a tunnel-mode ESP packet with
// the given TTL on the outer header.
func (sa *SA) Seal(inner []byte, ttl uint8) ([]byte, error) {
	if len(inner) == 0 {
		return nil, ErrTooShort
	}
	var nextHdr byte
	switch inner[0] >> 4 {
	case 4:
		nextHdr = nextHeaderIPv4
	case 6:
		nextHdr = nextHeaderIPv6
	default:
		return nil, pkt.ErrBadVersion
	}
	return sa.seal(inner, nextHdr, ttl)
}

// seal is Seal with the ESP trailer's next header given.
func (sa *SA) seal(inner []byte, nextHdr byte, ttl uint8) ([]byte, error) {
	sa.mu.Lock()
	sa.seq++
	seq := sa.seq
	sa.stats.Sealed++
	sa.mu.Unlock()

	// Pad the plaintext to a 4-byte multiple counting the 2 trailer
	// bytes (pad length + next header).
	padLen := (4 - (len(inner)+2)%4) % 4
	plain := make([]byte, len(inner)+padLen+2)
	copy(plain, inner)
	for i := 0; i < padLen; i++ {
		plain[len(inner)+i] = byte(i + 1)
	}
	plain[len(plain)-2] = byte(padLen)
	plain[len(plain)-1] = nextHdr

	espLen := espHeaderLen + espIVLen + len(plain) + espICVLen
	esp := make([]byte, espLen)
	binary.BigEndian.PutUint32(esp[0:4], sa.SPI)
	binary.BigEndian.PutUint32(esp[4:8], seq)
	iv := esp[espHeaderLen : espHeaderLen+espIVLen]
	if _, err := rand.Read(iv); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(sa.encKey[:])
	if err != nil {
		return nil, err
	}
	cipher.NewCTR(block, iv).XORKeyStream(esp[espHeaderLen+espIVLen:espLen-espICVLen], plain)
	mac := hmac.New(sha256.New, sa.authKey[:])
	mac.Write(esp[:espLen-espICVLen])
	copy(esp[espLen-espICVLen:], mac.Sum(nil)[:espICVLen])

	// Outer header.
	if !sa.Local.IsV6() {
		total := pkt.IPv4HeaderLen + espLen
		out := make([]byte, total)
		oh := pkt.IPv4Header{
			TotalLen: uint16(total), TTL: ttl, Protocol: pkt.ProtoESP,
			Src: sa.Local, Dst: sa.Peer,
		}
		if _, err := oh.Marshal(out); err != nil {
			return nil, err
		}
		copy(out[pkt.IPv4HeaderLen:], esp)
		return out, nil
	}
	total := pkt.IPv6HeaderLen + espLen
	out := make([]byte, total)
	oh := pkt.IPv6Header{
		PayloadLen: uint16(espLen), NextHeader: pkt.ProtoESP, HopLimit: ttl,
		Src: sa.Local, Dst: sa.Peer,
	}
	if _, err := oh.Marshal(out); err != nil {
		return nil, err
	}
	copy(out[pkt.IPv6HeaderLen:], esp)
	return out, nil
}

// Open authenticates, replay-checks, and decrypts a tunnel-mode ESP
// packet, returning the inner datagram. A packet it cannot open is
// counted once, under the reason it returns.
func (sa *SA) Open(outer []byte) ([]byte, error) {
	var esp []byte
	switch {
	case len(outer) > 0 && outer[0]>>4 == 4:
		h, err := pkt.ParseIPv4(outer)
		if err != nil {
			return sa.fail(&sa.stats.NotESP, err)
		}
		if h.Protocol != pkt.ProtoESP {
			return sa.fail(&sa.stats.NotESP, fmt.Errorf("ipsec: protocol %d is not ESP", h.Protocol))
		}
		esp = outer[h.HeaderLen():h.TotalLen]
	case len(outer) > 0 && outer[0]>>4 == 6:
		h, err := pkt.ParseIPv6(outer)
		if err != nil {
			return sa.fail(&sa.stats.NotESP, err)
		}
		if h.NextHeader != pkt.ProtoESP {
			return sa.fail(&sa.stats.NotESP, fmt.Errorf("ipsec: next header %d is not ESP", h.NextHeader))
		}
		esp = outer[pkt.IPv6HeaderLen : pkt.IPv6HeaderLen+int(h.PayloadLen)]
	default:
		return sa.fail(&sa.stats.NotESP, pkt.ErrBadVersion)
	}
	if len(esp) < espHeaderLen+espIVLen+espICVLen+4 {
		return sa.fail(&sa.stats.Truncated, ErrTooShort)
	}
	spi := binary.BigEndian.Uint32(esp[0:4])
	if spi != sa.SPI {
		return sa.fail(&sa.stats.BadSPI, ErrBadSPI)
	}
	seq := binary.BigEndian.Uint32(esp[4:8])

	mac := hmac.New(sha256.New, sa.authKey[:])
	mac.Write(esp[:len(esp)-espICVLen])
	if !hmac.Equal(mac.Sum(nil)[:espICVLen], esp[len(esp)-espICVLen:]) {
		return sa.fail(&sa.stats.AuthFails, ErrAuth)
	}
	// Replay check after authentication (RFC 4303 order).
	sa.mu.Lock()
	ok := sa.window.check(seq)
	if !ok {
		sa.stats.ReplayHits++
		sa.mu.Unlock()
		return nil, ErrReplay
	}
	sa.window.update(seq)
	sa.mu.Unlock()

	iv := esp[espHeaderLen : espHeaderLen+espIVLen]
	ct := esp[espHeaderLen+espIVLen : len(esp)-espICVLen]
	plain := make([]byte, len(ct))
	block, err := aes.NewCipher(sa.encKey[:])
	if err != nil {
		return nil, err
	}
	cipher.NewCTR(block, iv).XORKeyStream(plain, ct)
	padLen := int(plain[len(plain)-2]) // the length check above left ≥ 4 bytes
	nextHdr := plain[len(plain)-1]
	if padLen+2 > len(plain) {
		return sa.fail(&sa.stats.Truncated, ErrTooShort)
	}
	inner := plain[:len(plain)-2-padLen]
	if (nextHdr == nextHeaderIPv4 && (len(inner) == 0 || inner[0]>>4 != 4)) ||
		(nextHdr == nextHeaderIPv6 && (len(inner) == 0 || inner[0]>>4 != 6)) {
		return sa.fail(&sa.stats.BadInner, pkt.ErrBadHeader)
	}
	sa.mu.Lock()
	sa.stats.Opened++
	sa.mu.Unlock()
	return inner, nil
}

// fail counts one packet Open refused under counter c, one of sa's, and
// returns err.
func (sa *SA) fail(c *uint64, err error) ([]byte, error) {
	sa.mu.Lock()
	*c++
	sa.mu.Unlock()
	return nil, err
}

// Stats snapshots the SA counters.
func (sa *SA) Stats() SAStats {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	s := sa.stats
	s.SPI = sa.SPI
	return s
}

// replayWindow is the RFC 2401 64-packet sliding window.
type replayWindow struct {
	top    uint32
	bitmap uint64
}

func (w *replayWindow) check(seq uint32) bool {
	if seq == 0 {
		return false
	}
	if seq > w.top {
		return true
	}
	diff := w.top - seq
	if diff >= 64 {
		return false
	}
	return w.bitmap&(1<<diff) == 0
}

func (w *replayWindow) update(seq uint32) {
	if seq > w.top {
		shift := seq - w.top
		if shift >= 64 {
			w.bitmap = 1
		} else {
			w.bitmap = w.bitmap<<shift | 1
		}
		w.top = seq
		return
	}
	w.bitmap |= 1 << (w.top - seq)
}
