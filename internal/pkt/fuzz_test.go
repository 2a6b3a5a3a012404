package pkt

import (
	"errors"
	"testing"
)

// composedKey is the oracle for ExtractKey: the key decoded by the
// header codecs in sequence — ParseIPv4 or ParseIPv6, ParseHopByHop
// over each hop-by-hop header, then ParseUDP or ParseTCP. The one-pass
// parser must accept, reject and key exactly as this composition does.
func composedKey(data []byte, inIf int32) (Key, error) {
	k := Key{InIf: inIf}
	if len(data) == 0 {
		return k, ErrTruncated
	}
	var l4 []byte
	switch data[0] >> 4 {
	case 4:
		h, err := ParseIPv4(data)
		if err != nil {
			return k, err
		}
		k.Src, k.Dst, k.Proto = h.Src, h.Dst, h.Protocol
		if h.FragOff != 0 {
			return k, nil
		}
		l4 = data[h.HeaderLen():int(h.TotalLen)]
	case 6:
		h, err := ParseIPv6(data)
		if err != nil {
			return k, err
		}
		k.Src, k.Dst, k.Proto = h.Src, h.Dst, h.NextHeader
		l4 = data[IPv6HeaderLen : IPv6HeaderLen+int(h.PayloadLen)]
		for k.Proto == ProtoHopByHop {
			hh, err := ParseHopByHop(l4)
			if err != nil {
				return k, err
			}
			k.Proto = hh.NextHeader
			l4 = l4[hh.Len:]
		}
	default:
		return k, ErrBadVersion
	}
	switch k.Proto {
	case ProtoUDP:
		uh, err := ParseUDP(l4)
		if err != nil {
			return k, err
		}
		k.SrcPort, k.DstPort = uh.SrcPort, uh.DstPort
	case ProtoTCP:
		th, err := ParseTCP(l4)
		if err != nil {
			return k, err
		}
		k.SrcPort, k.DstPort = th.SrcPort, th.DstPort
	}
	return k, nil
}

// sentinel names the codec sentinel err matches, or nil.
func sentinel(err error) error {
	for _, s := range []error{ErrTruncated, ErrBadVersion, ErrBadHeader} {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}

// FuzzExtractKey checks the one-pass key parser against the codec
// composition: both accept with the same key, or both reject with the
// same sentinel. ExtractKey returns the sentinel itself, never a
// wrapped error. The seed corpus is in testdata/fuzz/FuzzExtractKey.
func FuzzExtractKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := ExtractKey(data, 7)
		want, werr := composedKey(data, 7)
		switch {
		case (gerr == nil) != (werr == nil):
			t.Fatalf("ExtractKey error %v, codecs error %v", gerr, werr)
		case gerr != nil:
			if gerr != sentinel(gerr) {
				t.Fatalf("ExtractKey returned %v, not a bare sentinel", gerr)
			}
			if gerr != sentinel(werr) {
				t.Fatalf("ExtractKey rejects with %v, codecs with %v", gerr, werr)
			}
		case got != want:
			t.Fatalf("ExtractKey key %v, codecs key %v", got, want)
		}
	})
}
