package main

import (
	"math/bits"
	"time"
)

// The host's speed drifts. On a shared machine what a run gets done per
// wall second changes over minutes as neighbours come and go: cachehit
// read 596 to 852 kpps over fourteen runs of identical code within eight
// minutes. A ruler is a fixed piece of harness code, timed between
// packets, that slows down with the host; every time-based figure of a
// slice is scaled by how slowly the ruler ran in that slice, relative to
// the ruler's refNs, so runs made in different regimes read alike.
const (
	// rulerEvery is how often the load loop times one ruler chunk: about
	// 1 % of the run, and thousands of readings per slice.
	rulerEvery = 500 * time.Microsecond
	// rulerCap bounds the chunk timings kept per phase: over a minute of
	// readings.
	rulerCap = 1 << 17
	// setupReadings is how many chunks are timed before each assembly.
	setupReadings = 32
	// rulerKeys is the size of the lookup part's map: more than the
	// second-level cache holds.
	rulerKeys = 1 << 16
)

// ruler is the chunk the harness times. Its compute part does what
// makes a cache-resident per-packet path fast or slow on a busy host, on
// data of its own that fits in the first-level cache: clock reads (the
// monotonic clock's cost moves with the host's load more than anything
// else measured), and independent chains of loads, arithmetic and
// data-dependent branches. A chain of dependent arithmetic alone barely
// moves and does not track the router. Its lookup part, run only for a
// workload whose packets miss the caches, hashes a key and looks it up
// in a map larger than the second-level cache, as a flow-table miss
// does; the compute part alone moves more than such a workload does.
type ruler struct {
	table [1024]uint32
	// keys and flows are the lookup part's (nil without one).
	keys  []uint64
	flows map[uint64]uint32
	key   [16]byte
	// refNs is the chunk time the figures are scaled to, about what a
	// chunk takes on a quiet 2-core Xeon host (go1.24).
	refNs float64
	sink  uint64
}

func newRuler(lookups bool) *ruler {
	r := &ruler{refNs: 2200}
	x := uint32(2463534242)
	for i := range r.table {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		r.table[i] = x
	}
	if lookups {
		r.refNs = 9000
		r.keys = make([]uint64, rulerKeys)
		r.flows = make(map[uint64]uint32, rulerKeys)
		k := uint64(88172645463325252)
		for i := range r.keys {
			k ^= k << 13
			k ^= k >> 7
			k ^= k << 17
			r.keys[i] = k
			r.flows[k] = uint32(i)
		}
	}
	return r
}

// reading is the median of n chunk times.
func (r *ruler) reading(n int) float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(r.chunk())
	}
	return median(ts)
}

// chunk runs the ruler once and returns how long it took.
func (r *ruler) chunk() int64 {
	t0 := nanotime()
	var clock int64
	for i := 0; i < 32; i++ {
		clock += nanotime()
	}
	a, b, c, d := r.sink|1, r.sink+3, r.sink^0x9e3779b9, r.sink+11
	var acc uint32
	for i := 0; i < 256; i++ {
		a = bits.RotateLeft64(a*0x9e3779b97f4a7c15, 13)
		b ^= b << 7
		b ^= b >> 9
		c += c>>3 | 1
		d ^= a >> 5
		acc += r.table[a&1023] + r.table[b&1023] + r.table[c&1023] + r.table[d&1023]
		if acc&1 == 0 {
			acc += 3
		}
	}
	if r.flows != nil {
		for i := 0; i < 32; i++ {
			r.key[i&15] ^= byte(a >> (i & 7))
			h := uint64(14695981039346656037) // FNV-1a
			for _, c := range r.key[:13] {
				h = (h ^ uint64(c)) * 1099511628211
			}
			acc += r.flows[r.keys[h%rulerKeys]]
		}
	}
	t1 := nanotime()
	r.sink += uint64(clock) + a + b + c + d + uint64(acc)
	return t1 - t0
}
