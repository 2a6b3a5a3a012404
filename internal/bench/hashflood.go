package bench

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// HashFloodOptions sizes the hash-flood experiment.
type HashFloodOptions struct {
	// Keys is the size of each key set (default 65536).
	Keys int
	// Passes is the number of timed lookup passes over each set; the
	// sets alternate pass by pass so drift hits both alike (default 9).
	Passes int
	Seed   int64
}

// floodWorkers is the worker count whose steering skew is reported.
const floodWorkers = 4

// HashFloodRow is one key set's collision behaviour in a full flow
// table.
type HashFloodRow struct {
	Keys string
	// NsPerLookup is the median over passes of the mean cache-hit
	// lookup time; NsQ1 and NsQ3 are the passes' quartiles.
	NsPerLookup, NsQ1, NsQ3 float64
	// MaxKeys and MeanKeys are the keys compared per lookup (at most a
	// bucket's slots unless a bucket overflowed).
	MaxKeys  int
	MeanKeys float64
	// MaxLines is the most bucket lines one lookup read.
	MaxLines int
	// ShardSkew and WorkerSkew are max/mean of the keys per flow-table
	// shard and per steered worker (1.0 is perfectly even).
	ShardSkew, WorkerSkew float64
}

// floodKeys returns n keys that all collide under an unkeyed xor-fold
// of the five-tuple: source and destination differ by one fixed mask
// (so src^dst is constant) and the ports and protocol are fixed. Such a
// fold would put every key in one bucket, one shard and one worker.
func floodKeys(n int) []pkt.Key {
	keys := make([]pkt.Key, n)
	for i := range keys {
		src := 0x0a000000 + uint32(i)
		keys[i] = pkt.Key{
			Src: pkt.AddrV4(src), Dst: pkt.AddrV4(src ^ 0x1f5a00c3),
			Proto: pkt.ProtoUDP, SrcPort: 1234, DstPort: 53,
		}
	}
	return keys
}

// uniformKeys returns n random distinct-enough UDP five-tuples.
func uniformKeys(rng *rand.Rand, n int) []pkt.Key {
	keys := make([]pkt.Key, n)
	for i := range keys {
		keys[i] = pkt.Key{
			Src: pkt.AddrV4(rng.Uint32()), Dst: pkt.AddrV4(rng.Uint32()),
			Proto: pkt.ProtoUDP, SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
		}
	}
	return keys
}

// RunHashFlood fills a default-sharded flow table with each key set —
// uniform random five-tuples, then floodKeys — and reports lookup cost,
// keys compared per lookup, and shard and worker skew.
func RunHashFlood(opt HashFloodOptions) []HashFloodRow {
	if opt.Keys <= 0 {
		opt.Keys = 1 << 16
	}
	if opt.Passes <= 0 {
		opt.Passes = 9
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	sets := []struct {
		name string
		keys []pkt.Key
	}{
		{"uniform", uniformKeys(rng, opt.Keys)},
		{"adversarial (fixed src^dst, ports)", floodKeys(opt.Keys)},
	}
	now := pkt.Nanotime()
	tables := make([]*aiu.FlowTable, len(sets))
	rows := make([]HashFloodRow, len(sets))
	for i, s := range sets {
		// Twice the keys' capacity: a shard's share of the cap must not
		// recycle keys of a set that split unevenly.
		ft := aiu.NewFlowTable(len(s.keys), 2*len(s.keys), 1)
		for _, k := range s.keys {
			ft.Insert(k, now, nil)
		}
		tables[i] = ft
		rows[i] = HashFloodRow{Keys: s.name}
		shards := make([]int, ft.Shards())
		workers := make([]int, floodWorkers)
		var keys int
		for _, k := range s.keys {
			lines, n := ft.Probe(k)
			keys += n
			rows[i].MaxKeys = max(rows[i].MaxKeys, n)
			rows[i].MaxLines = max(rows[i].MaxLines, lines)
			h := pkt.FlowHash(k)
			// With a power-of-two count, steering equals the shard
			// choice (pkt.SteerWorker's contract).
			shards[pkt.SteerWorker(h, ft.Shards())]++
			workers[pkt.SteerWorker(h, floodWorkers)]++
		}
		rows[i].MeanKeys = float64(keys) / float64(len(s.keys))
		rows[i].ShardSkew = skew(shards)
		rows[i].WorkerSkew = skew(workers)
	}
	// Timed passes, alternating sets, each over its keys in a fresh
	// random order so neither set benefits from insertion locality.
	ns := make([][]float64, len(sets))
	order := make([]int, opt.Keys)
	for i := range order {
		order[i] = i
	}
	for p := 0; p < opt.Passes; p++ {
		for i, s := range sets {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			ft := tables[i]
			t0 := nowNs()
			for _, j := range order {
				if ft.Lookup(s.keys[j], now, nil) == nil {
					panic("hashflood: inserted key missed")
				}
			}
			ns[i] = append(ns[i], float64(nowNs()-t0)/float64(len(order)))
		}
	}
	for i := range rows {
		slices.Sort(ns[i])
		n := len(ns[i])
		rows[i].NsPerLookup, rows[i].NsQ1, rows[i].NsQ3 = ns[i][n/2], ns[i][n/4], ns[i][(3*n)/4]
	}
	return rows
}

// skew is max/mean of counts.
func skew(counts []int) float64 {
	total, most := 0, 0
	for _, c := range counts {
		total += c
		most = max(most, c)
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(counts)) / float64(total)
}

// HashFloodTable renders the experiment.
func HashFloodTable(rows []HashFloodRow) *Table {
	t := &Table{
		Title:  "Hash flood: seeded flow hash under keys built to collide",
		Header: []string{"keys", "ns/lookup [q1, q3]", "keys compared max / mean", "max lines", "shard skew", fmt.Sprintf("%d-worker skew", floodWorkers)},
	}
	for _, r := range rows {
		t.Add(r.Keys,
			fmt.Sprintf("%.0f [%.0f, %.0f]", r.NsPerLookup, r.NsQ1, r.NsQ3),
			fmt.Sprintf("%d / %.3f", r.MaxKeys, r.MeanKeys),
			fmt.Sprint(r.MaxLines),
			fmt.Sprintf("%.3f", r.ShardSkew),
			fmt.Sprintf("%.3f", r.WorkerSkew))
	}
	t.Note("skew is max/mean keys per shard or worker; an unkeyed src^dst fold would put every adversarial key in one bucket, shard and worker")
	t.Note("a lookup compares at most %d keys per bucket line (tag-filtered slots)", aiu.FlowBucketSlots)
	return t
}
