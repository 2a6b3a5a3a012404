package pkt

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
)

// hashSeed keys FlowHash. It is drawn once per process, so an outsider
// who can choose five-tuples cannot precompute a set that lands in one
// flow-table bucket, one shard or one worker.
var hashSeed = [6]uint64{
	rand.Uint64(), rand.Uint64(), rand.Uint64(),
	rand.Uint64(), rand.Uint64(), rand.Uint64(),
}

// FlowHash is the flow hash of a key's five header fields
// <src, dst, proto, sport, dport> (the paper hashes the same five; the
// incoming interface is left out, so a flow hashes alike on every
// link). It is keyed by a per-process seed and is not symmetric in
// source and destination. Each 64-bit half of an address enters a
// folded 64×64→128-bit multiply with its own seed word (the wyhash
// mixing step), and a third fold joins the two addresses with the
// ports and protocol. A fold spreads a change in its operand's high
// bits poorly into the result's top bits — the ports alone would then
// pick the shard and worker from a handful of values under some seeds —
// so MurmurHash3's finalizer ends it, carrying every input bit to every
// output bit.
//
// Consumers slice the one value: the flow-table shard and the
// forwarding worker read the top byte, the bucket tag the next byte,
// the bucket index the low bits. Packets carry it in Hash (SetKey).
func FlowHash(k Key) uint64 {
	s := &hashSeed
	src := mix(binary.LittleEndian.Uint64(k.Src.b[:8])^s[0], binary.LittleEndian.Uint64(k.Src.b[8:])^s[1])
	dst := mix(binary.LittleEndian.Uint64(k.Dst.b[:8])^s[2], binary.LittleEndian.Uint64(k.Dst.b[8:])^s[3])
	rest := uint64(k.SrcPort)<<48 | uint64(k.DstPort)<<32 | uint64(k.Proto)<<8
	if k.Src.v6 {
		rest |= 1
	}
	if k.Dst.v6 {
		rest |= 2
	}
	return fmix(mix(src^rest^s[4], dst^s[5]))
}

// fmix is MurmurHash3's 64-bit finalizer.
func fmix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// mix folds the 128-bit product of a and b to 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// SetKey records the packet's parsed six-tuple and its flow hash. Every
// site that parses or rewrites the key goes through it, so Hash always
// equals FlowHash(Key) and nothing downstream hashes again.
//
//eisr:fastpath
func (p *Packet) SetKey(k Key) {
	p.Key, p.KeyValid, p.Hash = k, true, FlowHash(k)
}
