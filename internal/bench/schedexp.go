package bench

import (
	"fmt"

	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sched"
)

// DRRShareRow is one flow's share in the link-sharing demo.
type DRRShareRow struct {
	Label       string
	Weight      float64
	ServedBytes uint64
	Share       float64
	FairShare   float64
}

// RunDRRShare reproduces the §6.1 link-sharing demonstration: backlogged
// flows with weights receive bandwidth in proportion to their weights
// ("a weighted form of DRR which assigns weights to queues... extremely
// useful for demonstrations of the link-sharing capabilities").
func RunDRRShare(weights []float64, pktSize, pktsPerFlow int, linkBps float64, seconds float64) []DRRShareRow {
	if weights == nil {
		weights = []float64{1, 2, 4}
	}
	d := sched.NewDRR(1500, pktsPerFlow+1)
	queues := make([]*sched.DRRQueue, len(weights))
	for i, w := range weights {
		queues[i], _ = d.Queue(uint32(i), 0)
		d.SetWeight(queues[i], w)
		for j := 0; j < pktsPerFlow; j++ {
			d.EnqueueFlow(queues[i], &pkt.Packet{Data: make([]byte, pktSize)})
		}
	}
	sim := sched.NewLinkSim(d, linkBps)
	sim.Run(seconds)
	var total uint64
	minBacklogged := true
	for _, q := range queues {
		total += q.Served
	}
	_ = minBacklogged
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	rows := make([]DRRShareRow, len(queues))
	for i, q := range queues {
		rows[i] = DRRShareRow{
			Label: fmt.Sprintf("flow%d(w=%g)", i, q.Weight), Weight: q.Weight, ServedBytes: q.Served,
			Share:     float64(q.Served) / float64(total),
			FairShare: q.Weight / wsum,
		}
	}
	return rows
}

// DRRShareTable renders the shares.
func DRRShareTable(rows []DRRShareRow) *Table {
	t := &Table{
		Title:  "Weighted DRR link sharing (§6.1 demonstration)",
		Header: []string{"flow", "weight", "served bytes", "measured share", "weight share"},
	}
	for _, r := range rows {
		t.Add(r.Label, fmt.Sprintf("%g", r.Weight), fmt.Sprintf("%d", r.ServedBytes),
			fmt.Sprintf("%.3f", r.Share), fmt.Sprintf("%.3f", r.FairShare))
	}
	t.Note("shape target: measured share tracks weight share for continuously backlogged flows")
	return t
}

// HFSCRow is one class in the decoupling experiment.
type HFSCRow struct {
	Class        string
	Curve        string
	FirstDepart  float64 // seconds
	ServedBytes  uint64
	GoodputShare float64
}

// RunHFSCDecoupling reproduces the H-FSC property the paper adopts it
// for: "the decoupling of delay and bandwidth allocation". Two classes
// with identical long-term rates; one buys a burst segment (m1 >> m2)
// and must see far earlier departures at equal long-term goodput.
func RunHFSCDecoupling(linkBps float64) []HFSCRow {
	h := sched.NewHFSC(linkBps)
	lowDelay := sched.Curve{M1: linkBps * 0.8, D: 0.01, M2: linkBps * 0.2}
	flat := sched.LinearCurve(linkBps * 0.2)
	ls := sched.LinearCurve(linkBps * 0.2)
	fast, _ := h.AddClass("low-delay (m1=0.8C,d=10ms,m2=0.2C)", nil, &lowDelay, &ls, nil, nil)
	slow, _ := h.AddClass("flat (m=0.2C)", nil, &flat, &ls, nil, nil)
	const pktSize = 1000
	for i := 0; i < 2000; i++ {
		h.EnqueueClass(fast, &pkt.Packet{Data: make([]byte, pktSize)}, 0)
		h.EnqueueClass(slow, &pkt.Packet{Data: make([]byte, pktSize)}, 0)
	}
	sim := sched.NewHFSCLinkSim(h, linkBps)
	firstFast, firstSlow := -1.0, -1.0
	for sim.Now < 1.0 {
		bf, bs := fast.Served, slow.Served
		if sim.Step() == nil {
			break
		}
		if fast.Served > bf && firstFast < 0 {
			firstFast = sim.Now
		}
		if slow.Served > bs && firstSlow < 0 {
			firstSlow = sim.Now
		}
	}
	total := float64(fast.Served + slow.Served)
	return []HFSCRow{
		{Class: fast.Name, Curve: "concave", FirstDepart: firstFast, ServedBytes: fast.Served, GoodputShare: float64(fast.Served) / total},
		{Class: slow.Name, Curve: "linear", FirstDepart: firstSlow, ServedBytes: slow.Served, GoodputShare: float64(slow.Served) / total},
	}
}

// HFSCTable renders the decoupling rows.
func HFSCTable(rows []HFSCRow) *Table {
	t := &Table{
		Title:  "H-FSC delay/bandwidth decoupling (§6)",
		Header: []string{"class", "curve", "first departure", "served bytes", "goodput share"},
	}
	for _, r := range rows {
		t.Add(r.Class, r.Curve, fmt.Sprintf("%.2f ms", r.FirstDepart*1000),
			fmt.Sprintf("%d", r.ServedBytes), fmt.Sprintf("%.3f", r.GoodputShare))
	}
	t.Note("shape target: the concave class departs first by roughly m1/m2 while long-term goodput shares stay ~equal")
	return t
}

// SchedOverheadRow is one scheduler's per-packet cost through the
// enqueue+dequeue path.
type SchedOverheadRow struct {
	Scheduler string
	NsPerPkt  float64
	Paper     string
}

// RunSchedOverhead contrasts per-packet scheduling cost: FIFO vs plugin
// DRR vs ALTQ DRR vs H-FSC (the §7.3 discussion: DRR ≈ +20% over best
// effort; [27] reports 6.8–10.3 µs for H-FSC queueing on a P200).
func RunSchedOverhead(pkts int) []SchedOverheadRow {
	if pkts <= 0 {
		pkts = 200_000
	}
	mk := func() []*pkt.Packet {
		out := make([]*pkt.Packet, 64)
		for i := range out {
			data, _ := pkt.BuildUDP(pkt.UDPSpec{
				Src: pkt.AddrV4(0x0a000001 + uint32(i%3)), Dst: pkt.AddrV4(0x14000001),
				SrcPort: uint16(7000 + i%3), DstPort: 9, Payload: make([]byte, 1000),
			})
			p, _ := pkt.NewPacket(data, 0)
			out[i] = p
		}
		return out
	}
	var rows []SchedOverheadRow

	fifo := sched.NewFIFO(128)
	rows = append(rows, SchedOverheadRow{"FIFO (best effort)", timeSched(pkts, mk(), fifo.Enqueue, fifo.Dequeue), "baseline"})

	drr := sched.NewDRR(1500, 128)
	dq := [3]*sched.DRRQueue{}
	for i := range dq {
		dq[i], _ = drr.Queue(uint32(i), 0)
	}
	i := 0
	rows = append(rows, SchedOverheadRow{"DRR plugin (per-flow queues)", timeSched(pkts, mk(), func(p *pkt.Packet) error {
		q := dq[i%3]
		i++
		return drr.EnqueueFlow(q, p)
	}, drr.Dequeue), "~+20% on the full path"})

	altq := sched.NewALTQDRR(256, 1500)
	rows = append(rows, SchedOverheadRow{"ALTQ DRR (hashes per packet)", timeSched(pkts, mk(), altq.Enqueue, altq.Dequeue), "similar to plugin DRR"})

	h := sched.NewHFSC(125e6)
	rt := sched.LinearCurve(40e6)
	cls := [3]*sched.Class{}
	for j := range cls {
		cls[j], _ = h.AddClass(fmt.Sprintf("c%d", j), nil, &rt, &rt, nil, nil)
	}
	now := 0.0
	j := 0
	rows = append(rows, SchedOverheadRow{"H-FSC (3 leaf classes)", timeSched(pkts, mk(), func(p *pkt.Packet) error {
		c := cls[j%3]
		j++
		now += 1e-5
		return h.EnqueueClass(c, p, now)
	}, func() *pkt.Packet { return h.DequeueAt(now) }), "6.8-10.3us queueing on a P200 [27]"})
	return rows
}

func timeSched(pkts int, pool []*pkt.Packet, enq func(*pkt.Packet) error, deq func() *pkt.Packet) float64 {
	t := nowNs()
	for i := 0; i < pkts; i++ {
		p := pool[i%len(pool)]
		p.FIX = nil
		enq(p)
		deq()
	}
	return float64(nowNs()-t) / float64(pkts)
}

// SchedOverheadTable renders the comparison.
func SchedOverheadTable(rows []SchedOverheadRow) *Table {
	t := &Table{
		Title:  "Per-packet scheduler cost (enqueue+dequeue)",
		Header: []string{"scheduler", "ns/pkt", "paper context"},
	}
	for _, r := range rows {
		t.Add(r.Scheduler, fmt.Sprintf("%.0f", r.NsPerPkt), r.Paper)
	}
	return t
}
