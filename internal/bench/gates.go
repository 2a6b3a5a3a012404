package bench

import (
	"fmt"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// nowNs is a monotonic nanosecond clock for the harness.
func nowNs() int64 { return time.Now().UnixNano() }

// GateScalePoint is one gate-count measurement.
type GateScalePoint struct {
	Gates        int
	FirstPktMem  uint64
	CachedPktMem uint64
	FirstPktNs   float64
	CachedPktNs  float64
}

// RunGateScale validates the §3.2 scalability claim: "our architecture
// is scalable to a very large number of gates since the number of gates
// matters only for the first packet arriving on a (uncached) flow". It
// sweeps the gate count and measures classification cost for the first
// packet of a flow versus a cached packet.
func RunGateScale(maxGates int) []GateScalePoint {
	if maxGates <= 0 {
		maxGates = 8
	}
	var out []GateScalePoint
	for n := 1; n <= maxGates; n++ {
		gates := make([]pcu.Type, n)
		for i := range gates {
			gates[i] = pcu.Type(uint16(pcu.TypeUser) + uint16(i))
		}
		a := aiu.New(aiu.Config{BMPKind: bmp.KindBSPL}, gates...)
		inst := benchInstance{}
		for _, g := range gates {
			a.Bind(g, aiu.MustParseFilter("10.0.0.0/8, *, UDP, *, *, *"), &inst, nil)
		}
		now := time.Now()
		const trials = 2000
		var firstMem, cachedMem uint64
		var firstNs, cachedNs int64
		for trial := 0; trial < trials; trial++ {
			k := pkt.Key{
				Src: pkt.AddrV4(0x0a000000 + uint32(trial+1)), Dst: pkt.AddrV4(0x14000001),
				Proto: pkt.ProtoUDP, SrcPort: uint16(trial), DstPort: 9,
			}
			p := keyedPacket(k)
			var c1 cycles.Counter
			t0 := nowNs()
			a.LookupGate(p, gates[0], now, &c1)
			firstNs += nowNs() - t0
			firstMem += c1.Total()

			q := keyedPacket(k)
			var c2 cycles.Counter
			t0 = nowNs()
			a.LookupGate(q, gates[0], now, &c2)
			cachedNs += nowNs() - t0
			cachedMem += c2.Total()
		}
		out = append(out, GateScalePoint{
			Gates:        n,
			FirstPktMem:  firstMem / trials,
			CachedPktMem: cachedMem / trials,
			FirstPktNs:   float64(firstNs) / trials,
			CachedPktNs:  float64(cachedNs) / trials,
		})
	}
	return out
}

// GateScaleTable renders the sweep.
func GateScaleTable(points []GateScalePoint) *Table {
	t := &Table{
		Title:  "Gate scaling (§3.2): first packet pays per gate, cached packets don't",
		Header: []string{"gates", "first-pkt accesses", "cached accesses", "first-pkt ns", "cached ns"},
	}
	for _, p := range points {
		t.Add(fmt.Sprintf("%d", p.Gates),
			fmt.Sprintf("%d", p.FirstPktMem), fmt.Sprintf("%d", p.CachedPktMem),
			fmt.Sprintf("%.0f", p.FirstPktNs), fmt.Sprintf("%.0f", p.CachedPktNs))
	}
	t.Note("shape target: first-packet columns grow ~linearly with the gate count; cached columns stay flat")
	return t
}
