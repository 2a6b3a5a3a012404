package bench

import (
	"fmt"
	"math/rand"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/trafficgen"
)

// AblateCacheRow contrasts flow-cached classification against
// classify-every-packet — quantifying how much of the paper's 8% result
// rests on the flow cache exploiting traffic locality.
type AblateCacheRow struct {
	Mode     string
	NsPerPkt float64
	Accesses float64
}

// RunAblateCache runs the same bursty trace through the normal cached
// path and through a forced classify-per-packet path.
func RunAblateCache(seed int64, nFlows, nPackets int, burstiness float64) []AblateCacheRow {
	rng := rand.New(rand.NewSource(seed))
	filters := trafficgen.FlowLikeFilters(rng, 1000, false)
	keys := trafficgen.RandomKeys(rng, nFlows, false)
	trace := trafficgen.LocalityTrace(rng, nFlows, nPackets, burstiness)

	build := func() *aiu.AIU {
		a := aiu.New(aiu.Config{BMPKind: bmp.KindBSPL, MaxFlows: nFlows * 2}, pcu.TypeSched)
		inst := benchInstance{}
		for _, f := range filters {
			a.Bind(pcu.TypeSched, f, &inst, nil)
		}
		a.Bind(pcu.TypeSched, aiu.MatchAll(), &inst, nil)
		a.ClassifyKey(pcu.TypeSched, keys[0], nil) // build
		return a
	}

	var rows []AblateCacheRow
	now := pkt.Nanotime()

	a := build()
	var mem uint64
	t0 := nowNs()
	for _, fi := range trace {
		p := keyedPacket(keys[fi])
		var c cycles.Counter
		a.LookupGate(p, pcu.TypeSched, now, &c)
		mem += c.Total()
	}
	rows = append(rows, AblateCacheRow{
		Mode:     "flow cache on (normal data path)",
		NsPerPkt: float64(nowNs()-t0) / float64(len(trace)),
		Accesses: float64(mem) / float64(len(trace)),
	})

	b := build()
	mem = 0
	t0 = nowNs()
	for _, fi := range trace {
		var c cycles.Counter
		b.ClassifyKey(pcu.TypeSched, keys[fi], &c)
		mem += c.Total()
	}
	rows = append(rows, AblateCacheRow{
		Mode:     "flow cache off (classify every packet)",
		NsPerPkt: float64(nowNs()-t0) / float64(len(trace)),
		Accesses: float64(mem) / float64(len(trace)),
	})
	return rows
}

// AblateCacheTable renders the comparison.
func AblateCacheTable(rows []AblateCacheRow) *Table {
	t := &Table{
		Title:  "Ablation: flow cache on/off",
		Header: []string{"mode", "ns/pkt", "accesses/pkt"},
	}
	for _, r := range rows {
		t.Add(r.Mode, fmt.Sprintf("%.0f", r.NsPerPkt), fmt.Sprintf("%.1f", r.Accesses))
	}
	t.Note("the cache converts a per-packet DAG walk into a hash probe for all but the first packet of each burst")
	return t
}

// AblateBMPRow is one BMP algorithm's classification cost inside the
// DAG.
type AblateBMPRow struct {
	Kind     bmp.Kind
	NsPerKey float64
	Accesses float64
}

// RunAblateBMP swaps the DAG's address match plugin — the paper's
// modularity argument made measurable ("we can easily replace our
// DAG-based classifier with a new classifier plugin").
func RunAblateBMP(seed int64, nFilters int) []AblateBMPRow {
	rng := rand.New(rand.NewSource(seed))
	filters := trafficgen.FlowLikeFilters(rng, nFilters, false)
	keys := trafficgen.RandomKeys(rng, 4096, false)
	var rows []AblateBMPRow
	for _, kind := range []bmp.Kind{bmp.KindLinear, bmp.KindPatricia, bmp.KindBSPL, bmp.KindCPE} {
		a := aiu.New(aiu.Config{BMPKind: kind}, pcu.TypeSched)
		inst := benchInstance{}
		for _, f := range filters {
			a.Bind(pcu.TypeSched, f, &inst, nil)
		}
		a.ClassifyKey(pcu.TypeSched, keys[0], nil)
		var mem uint64
		t0 := nowNs()
		for _, k := range keys {
			var c cycles.Counter
			a.ClassifyKey(pcu.TypeSched, k, &c)
			mem += c.Total()
		}
		rows = append(rows, AblateBMPRow{
			Kind:     kind,
			NsPerKey: float64(nowNs()-t0) / float64(len(keys)),
			Accesses: float64(mem) / float64(len(keys)),
		})
	}
	return rows
}

// AblateBMPTable renders the comparison.
func AblateBMPTable(rows []AblateBMPRow, nFilters int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: BMP match plugin inside the DAG (%d filters)", nFilters),
		Header: []string{"BMP plugin", "ns/lookup", "accesses/lookup"},
	}
	for _, r := range rows {
		t.Add(string(r.Kind), fmt.Sprintf("%.0f", r.NsPerKey), fmt.Sprintf("%.1f", r.Accesses))
	}
	t.Note("patricia is the paper's 'slower but freely available' plugin; bspl its fast patented one; cpe the cited state of the art")
	return t
}

// AblateInterDAGRow contrasts the §5.1.2 inter-DAG sharing optimization.
type AblateInterDAGRow struct {
	Mode        string
	FirstPktMem float64
	FirstPktNs  float64
}

// RunAblateInterDAG measures the uncached (first-packet) classification
// cost across gates whose filter tables are identical — the situation
// the paper's inter-DAG pointers target — with sharing off and on.
func RunAblateInterDAG(seed int64, nGates, nFilters int) []AblateInterDAGRow {
	rng := rand.New(rand.NewSource(seed))
	filters := trafficgen.FlowLikeFilters(rng, nFilters, false)
	keys := trafficgen.RandomKeys(rng, 4096, false)
	var rows []AblateInterDAGRow
	for _, share := range []bool{false, true} {
		gates := make([]pcu.Type, nGates)
		for i := range gates {
			gates[i] = pcu.Type(uint16(pcu.TypeUser) + uint16(i))
		}
		a := aiu.New(aiu.Config{BMPKind: bmp.KindBSPL, ShareIdenticalTables: share, MaxFlows: 1 << 20}, gates...)
		inst := benchInstance{}
		for _, g := range gates {
			for _, f := range filters {
				a.Bind(g, f, &inst, nil)
			}
		}
		for _, g := range gates {
			a.ClassifyKey(g, keys[0], nil) // build every gate's DAG outside the timer
		}
		now := pkt.Nanotime()
		var mem uint64
		t0 := nowNs()
		for i, k := range keys {
			k.SrcPort = uint16(i) // unique flows: always the slow path
			p := keyedPacket(k)
			var c cycles.Counter
			a.LookupGate(p, gates[0], now, &c)
			mem += c.Total()
		}
		mode := "inter-DAG sharing off"
		if share {
			mode = "inter-DAG sharing on"
		}
		rows = append(rows, AblateInterDAGRow{
			Mode:        mode,
			FirstPktMem: float64(mem) / float64(len(keys)),
			FirstPktNs:  float64(nowNs()-t0) / float64(len(keys)),
		})
	}
	return rows
}

// AblateInterDAGTable renders the comparison.
func AblateInterDAGTable(rows []AblateInterDAGRow, nGates int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: inter-DAG sharing (§5.1.2), %d gates with identical tables", nGates),
		Header: []string{"mode", "first-pkt accesses", "first-pkt ns"},
	}
	for _, r := range rows {
		t.Add(r.Mode, fmt.Sprintf("%.1f", r.FirstPktMem), fmt.Sprintf("%.0f", r.FirstPktNs))
	}
	t.Note("with sharing, later gates resolve via one pointer access instead of a DAG walk; cached packets are unaffected either way")
	return t
}

// AblateCollapseRow contrasts node collapsing on/off.
type AblateCollapseRow struct {
	Mode     string
	Accesses float64
	Nodes    int
}

// RunAblateCollapse measures the §5.1.2 node-collapsing optimization on
// a filter population with wildcard-heavy tails.
func RunAblateCollapse(seed int64) []AblateCollapseRow {
	rng := rand.New(rand.NewSource(seed))
	// Prefix-only filters: everything past the address fields wild, so
	// collapsing elides four levels.
	var filters []aiu.Filter
	for i := 0; i < 256; i++ {
		f := aiu.MatchAll()
		f.Src = aiu.AddrIn(pkt.PrefixFrom(pkt.AddrV4(rng.Uint32()), 8+rng.Intn(17)))
		filters = append(filters, f)
	}
	keys := trafficgen.RandomKeys(rng, 4096, false)
	var rows []AblateCollapseRow
	for _, collapse := range []bool{false, true} {
		a := aiu.New(aiu.Config{BMPKind: bmp.KindBSPL, CollapseNodes: collapse}, pcu.TypeSched)
		inst := benchInstance{}
		for _, f := range filters {
			a.Bind(pcu.TypeSched, f, &inst, nil)
		}
		a.ClassifyKey(pcu.TypeSched, keys[0], nil)
		var mem uint64
		for _, k := range keys {
			var c cycles.Counter
			a.ClassifyKey(pcu.TypeSched, k, &c)
			mem += c.Total()
		}
		mode := "collapse off"
		if collapse {
			mode = "collapse on"
		}
		rows = append(rows, AblateCollapseRow{
			Mode:     mode,
			Accesses: float64(mem) / float64(len(keys)),
			Nodes:    a.DAGNodes(pcu.TypeSched),
		})
	}
	return rows
}

// AblateCollapseTable renders the comparison.
func AblateCollapseTable(rows []AblateCollapseRow) *Table {
	t := &Table{
		Title:  "Ablation: DAG node collapsing (§5.1.2)",
		Header: []string{"mode", "accesses/lookup", "DAG nodes"},
	}
	for _, r := range rows {
		t.Add(r.Mode, fmt.Sprintf("%.1f", r.Accesses), fmt.Sprintf("%d", r.Nodes))
	}
	t.Note("collapsing skips all-wildcard levels: fewer edge accesses and fewer nodes on prefix-only policies")
	return t
}
