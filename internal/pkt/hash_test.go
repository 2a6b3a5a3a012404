package pkt

import (
	"math/rand"
	"testing"
)

// TestFlowHashDistribution: random flows, sequential addresses and
// sequential ports between one address pair spread evenly over buckets — with 4096 flows into 1024 buckets, no bucket exceeds
// 4x the mean — whichever slice of the hash a consumer reads. The bound
// is a tail a uniform hash crosses about once in a thousand seeds, so
// the test pins four seeds instead of drawing the process's.
func TestFlowHashDistribution(t *testing.T) {
	saved := hashSeed
	defer func() { hashSeed = saved }()
	seeds := rand.New(rand.NewSource(7))
	for range 4 {
		for i := range hashSeed {
			hashSeed[i] = seeds.Uint64()
		}
		checkFlowHashSpread(t)
	}
}

func checkFlowHashSpread(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	const buckets = 1024
	sets := map[string]func(i int) Key{
		"random": func(int) Key {
			return Key{
				Src: AddrV4(rng.Uint32()), Dst: AddrV4(rng.Uint32()),
				Proto: ProtoTCP, SrcPort: uint16(rng.Intn(65536)), DstPort: 80,
			}
		},
		"sequential": func(i int) Key {
			return Key{Src: AddrV4(0x0a000000 + uint32(i)), Dst: AddrV4(0x0b000001), Proto: ProtoUDP, SrcPort: 1000, DstPort: 53}
		},
		"source ports": func(i int) Key {
			return Key{Src: AddrV4(1), Dst: AddrV4(2), Proto: ProtoUDP, SrcPort: uint16(i), DstPort: 53}
		},
	}
	for name, gen := range sets {
		low := make(map[uint64]int)
		top := make(map[uint64]int)
		for i := 0; i < 4096; i++ {
			h := FlowHash(gen(i))
			low[h&(buckets-1)]++
			top[h>>(64-10)]++
		}
		for slice, counts := range map[string]map[uint64]int{"low bits": low, "top bits": top} {
			max := 0
			for _, c := range counts {
				if c > max {
					max = c
				}
			}
			if max > 16 {
				t.Errorf("seed %x: %s keys, %s: worst bucket load %d for mean 4", hashSeed[0], name, slice, max)
			}
		}
	}
}

// TestFlowHashTopBitsPerField: varying one field alone — a port, the
// protocol, one address byte — moves the top bits, which pick the shard
// and the worker, under every seed: over 512 seeds, 256 flows that
// differ in one field never put more than 3x the mean into one of 16
// top-nibble cells. (A bare multiply fold fails this for about one seed
// in a hundred: a change high in its operand barely reaches the top of
// the product.)
func TestFlowHashTopBitsPerField(t *testing.T) {
	saved := hashSeed
	defer func() { hashSeed = saved }()
	base := Key{Src: AddrV4(0x0a000001), Dst: AddrV4(0x0b000002), Proto: ProtoUDP, SrcPort: 1000, DstPort: 53}
	fields := map[string]func(k *Key, i int){
		"source port":      func(k *Key, i int) { k.SrcPort = uint16(i) },
		"destination port": func(k *Key, i int) { k.DstPort = uint16(i) },
		"protocol":         func(k *Key, i int) { k.Proto = uint8(i) },
		"source low byte":  func(k *Key, i int) { k.Src = AddrV4(0x0a000000 | uint32(i)) },
		"dest high byte":   func(k *Key, i int) { k.Dst = AddrV4(uint32(i) << 24) },
	}
	seeds := rand.New(rand.NewSource(11))
	for range 512 {
		for i := range hashSeed {
			hashSeed[i] = seeds.Uint64()
		}
		for name, set := range fields {
			var cells [16]int
			for i := 0; i < 256; i++ {
				k := base
				set(&k, i)
				cells[FlowHash(k)>>60]++
			}
			for c, n := range cells {
				if n > 48 {
					t.Fatalf("seed %x: %s: %d of 256 flows in top nibble %x", hashSeed[0], name, n, c)
				}
			}
		}
	}
}

// TestFlowHashNotSymmetric: swapping source and destination changes the
// hash, so a flow and its reverse are independent, and keys built to
// collide under a src^dst fold (fixed src^dst, fixed ports) spread.
func TestFlowHashNotSymmetric(t *testing.T) {
	swapped := 0
	seen := make(map[uint64]bool)
	for i := uint32(0); i < 1024; i++ {
		k := Key{Src: AddrV4(0x0a000000 + i), Dst: AddrV4(0x0b000000 ^ i), Proto: ProtoUDP, SrcPort: 7, DstPort: 7}
		r := k
		r.Src, r.Dst = k.Dst, k.Src
		if FlowHash(k) == FlowHash(r) {
			swapped++
		}
		seen[FlowHash(k)>>54] = true
	}
	if swapped > 0 {
		t.Errorf("%d of 1024 keys hash like their reverse", swapped)
	}
	if len(seen) < 512 {
		t.Errorf("src^dst-colliding keys cover only %d of 1024 top-10-bit values", len(seen))
	}
}

// TestSetKeyHashes: SetKey and Reset store the key's flow hash.
func TestSetKeyHashes(t *testing.T) {
	k := Key{Src: AddrV4(1), Dst: AddrV4(2), Proto: ProtoUDP, SrcPort: 3, DstPort: 4}
	var p Packet
	p.SetKey(k)
	if !p.KeyValid || p.Key != k || p.Hash != FlowHash(k) {
		t.Fatalf("SetKey: key %v valid %v hash %#x, want hash %#x", p.Key, p.KeyValid, p.Hash, FlowHash(k))
	}
	data, err := BuildUDP(UDPSpec{Src: k.Src, Dst: k.Dst, SrcPort: 3, DstPort: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(data, 2); err != nil {
		t.Fatal(err)
	}
	if p.Hash != FlowHash(p.Key) || p.Hash != FlowHash(k) {
		t.Errorf("Reset: hash %#x, want %#x", p.Hash, FlowHash(p.Key))
	}
	if err := p.Reset(data[:3], 2); err == nil || p.Hash != 0 || p.KeyValid {
		t.Errorf("malformed Reset left hash %#x valid %v", p.Hash, p.KeyValid)
	}
}
