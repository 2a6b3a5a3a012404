package bench

import (
	"fmt"
	"runtime"

	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sched"
)

// SchedScaleRow is one (scheduler, flow-count) point of the scale sweep.
type SchedScaleRow struct {
	Scheduler string
	Flows     int
	// QueueBytes is the measured heap cost of one idle flow queue.
	QueueBytes float64
	// EnqNs/DeqNs are steady-state per-packet costs with a standing
	// backlog spread across the flows.
	EnqNs, DeqNs float64
	// AllocsPerOp is heap allocations per enqueue+dequeue pair in steady
	// state (the fast path must not allocate).
	AllocsPerOp float64
	// EvictNsPerQ is the per-queue teardown cost of PurgeIdle; <0 means
	// not measured.
	EvictNsPerQ float64
	Note        string
}

// SchedScaleOptions sizes the sweep.
type SchedScaleOptions struct {
	// Tiers are the live-flow counts (default 10k, 100k, 1M).
	Tiers []int
	// Ops is the steady-state packet count timed per tier (default 1<<18).
	Ops int
}

// Window and backlog geometry of the steady-state loop: each round
// enqueues one window of packets to a rotating span of flows and
// dequeues one window, on top of a standing backlog that keeps the
// wheel/active-list realistically occupied.
const (
	scaleWindow     = 4096
	scaleMaxBacklog = 1 << 16
)

// RunSchedScale sweeps live-flow counts across schedulers: Eiffel and
// DRR at every tier (a DRR queue's FIFO array grows with its backlog,
// so a million mostly idle flows fit), H-FSC capped at 10k (per-packet
// heap operations are O(log n) and the comparison point only needs the
// trend). The million-flow tier is the tentpole claim: Eiffel's
// enqueue+dequeue cost must stay flat from 10k to 1M because every
// operation is an intrusive list append plus a bounded FFS probe,
// regardless of how many flows are live.
func RunSchedScale(opts SchedScaleOptions) []SchedScaleRow {
	tiers := opts.Tiers
	if len(tiers) == 0 {
		tiers = []int{10_000, 100_000, 1_000_000}
	}
	ops := opts.Ops
	if ops <= 0 {
		ops = 1 << 18
	}
	var rows []SchedScaleRow
	for _, n := range tiers {
		rows = append(rows, runEiffelScale(n, ops))
	}
	for _, n := range tiers {
		rows = append(rows, runDRRScale(n, ops))
	}
	for _, n := range tiers {
		if n > 10_000 {
			rows = append(rows, SchedScaleRow{
				Scheduler: "H-FSC", Flows: n, EvictNsPerQ: -1,
				Note: "skipped: O(log n) heap per packet",
			})
			continue
		}
		rows = append(rows, runHFSCScale(n, ops))
	}
	return rows
}

// heapInUse forces a collection and reads live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// scalePackets builds the recycled in-flight packet set: Data slices all
// alias one buffer (the schedulers only read the length), so a window
// costs packet headers, not payloads.
func scalePackets(n int) []*pkt.Packet {
	buf := make([]byte, 1500)
	ps := make([]*pkt.Packet, n)
	for i := range ps {
		ps[i] = &pkt.Packet{Data: buf[:1000]}
	}
	return ps
}

// scaleSteady runs the shared steady-state loop: seed a standing
// backlog of one packet on each of the first backlog flows, then time
// rounds that dequeue one window of packets and re-enqueue exactly
// those packets onto a rotating flow span — the in-flight set recycles,
// the backlog holds steady, and no packet is ever enqueued while the
// scheduler still holds it. Returns per-op enqueue ns, dequeue ns, and
// allocations per enqueue+dequeue pair.
func scaleSteady(n, ops int, enqFlow func(flow int, p *pkt.Packet) error, deq func() *pkt.Packet) (enqNs, deqNs, allocs float64) {
	backlog := n
	if backlog > scaleMaxBacklog {
		backlog = scaleMaxBacklog
	}
	standing := scalePackets(backlog)
	for i, p := range standing {
		if err := enqFlow(i, p); err != nil {
			panic(fmt.Sprintf("bench: seeding backlog: %v", err))
		}
	}
	scratch := make([]*pkt.Packet, scaleWindow)
	rounds := ops / scaleWindow
	if rounds < 2 {
		rounds = 2
	}
	oneRound := func(base int) (int64, int64) {
		t0 := nowNs()
		for i := range scratch {
			p := deq()
			if p == nil {
				panic("bench: scheduler empty in steady state")
			}
			scratch[i] = p
		}
		t1 := nowNs()
		for i, p := range scratch {
			if err := enqFlow((base+i)%n, p); err != nil {
				panic(fmt.Sprintf("bench: steady enqueue: %v", err))
			}
		}
		return nowNs() - t1, t1 - t0
	}
	// Warmup round, untimed: fault in the wheel/active list.
	base := backlog
	oneRound(base)
	base += scaleWindow

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var te, td int64
	for r := 0; r < rounds; r++ {
		e, d := oneRound(base)
		te += e
		td += d
		base += scaleWindow
	}
	runtime.ReadMemStats(&m1)
	total := float64(rounds * scaleWindow)
	// The two ReadMemStats calls themselves may allocate a few objects;
	// amortized over >=2^18 ops that noise is far below 0.01 allocs/op.
	return float64(te) / total, float64(td) / total,
		float64(m1.Mallocs-m0.Mallocs) / total
}

func runEiffelScale(n, ops int) SchedScaleRow {
	e := sched.NewEiffel(1500, 0)
	before := heapInUse()
	qs := make([]*sched.EiffelQueue, n)
	for i := range qs {
		qs[i], _ = e.Queue(uint32(i), 0)
	}
	perQueue := (float64(heapInUse()) - float64(before)) / float64(n)
	enq, deq, allocs := scaleSteady(n, ops, func(f int, p *pkt.Packet) error {
		return e.EnqueueFlow(qs[f], p)
	}, e.Dequeue)
	for e.Dequeue() != nil {
	}
	t0 := nowNs()
	purged := e.PurgeIdle()
	evict := float64(nowNs()-t0) / float64(purged)
	return SchedScaleRow{
		Scheduler: "Eiffel", Flows: n, QueueBytes: perQueue,
		EnqNs: enq, DeqNs: deq, AllocsPerOp: allocs, EvictNsPerQ: evict,
		Note: fmt.Sprintf("purged %d idle queues", purged),
	}
}

func runDRRScale(n, ops int) SchedScaleRow {
	d := sched.NewDRR(1500, 0)
	before := heapInUse()
	qs := make([]*sched.DRRQueue, n)
	for i := range qs {
		qs[i], _ = d.Queue(uint32(i), 0)
	}
	perQueue := (float64(heapInUse()) - float64(before)) / float64(n)
	enq, deq, allocs := scaleSteady(n, ops, func(f int, p *pkt.Packet) error {
		return d.EnqueueFlow(qs[f], p)
	}, d.Dequeue)
	for d.Dequeue() != nil {
	}
	t0 := nowNs()
	purged := d.PurgeIdle()
	evict := float64(nowNs()-t0) / float64(purged)
	return SchedScaleRow{
		Scheduler: "DRR", Flows: n, QueueBytes: perQueue,
		EnqNs: enq, DeqNs: deq, AllocsPerOp: allocs, EvictNsPerQ: evict,
		Note: fmt.Sprintf("purged %d idle queues", purged),
	}
}

func runHFSCScale(n, ops int) SchedScaleRow {
	h := sched.NewHFSC(125e6)
	// Full-rate real-time curves keep every backlogged class eligible,
	// so the timed loop measures heap cost, not curve wake-ups. H-FSC's
	// per-op cost is orders of magnitude above the others, so a fraction
	// of the op budget gives the same per-op resolution.
	ops /= 8
	rt := sched.LinearCurve(125e6)
	before := heapInUse()
	cls := make([]*sched.Class, n)
	for i := range cls {
		// Small explicit FIFOs: the default leaf queue preallocates 64k
		// slots and would swamp the per-class footprint figure.
		c, err := h.AddClass("", nil, &rt, &rt, nil, sched.NewFIFO(64))
		if err != nil {
			panic(err)
		}
		cls[i] = c
	}
	perQueue := (float64(heapInUse()) - float64(before)) / float64(n)
	now := 0.0
	enq, deq, allocs := scaleSteady(n, ops, func(f int, p *pkt.Packet) error {
		now += 1e-7
		return h.EnqueueClass(cls[f], p, now)
	}, func() *pkt.Packet {
		for i := 0; i < 1000; i++ {
			now += 1e-6
			if p := h.DequeueAt(now); p != nil {
				return p
			}
		}
		return nil
	})
	return SchedScaleRow{
		Scheduler: "H-FSC", Flows: n, QueueBytes: perQueue,
		EnqNs: enq, DeqNs: deq, AllocsPerOp: allocs, EvictNsPerQ: -1,
	}
}

// SchedScaleTable renders the sweep.
func SchedScaleTable(rows []SchedScaleRow) *Table {
	t := &Table{
		Title:  "Scheduler scale sweep (live flows vs per-packet cost)",
		Header: []string{"scheduler", "flows", "queue bytes", "enq ns/op", "deq ns/op", "allocs/op", "evict ns/q", "note"},
	}
	for _, r := range rows {
		if r.Note != "" && r.EnqNs == 0 && r.DeqNs == 0 {
			t.Add(r.Scheduler, fmt.Sprintf("%d", r.Flows), "-", "-", "-", "-", "-", r.Note)
			continue
		}
		evict := "-"
		if r.EvictNsPerQ >= 0 {
			evict = fmt.Sprintf("%.0f", r.EvictNsPerQ)
		}
		t.Add(r.Scheduler, fmt.Sprintf("%d", r.Flows),
			fmt.Sprintf("%.0f", r.QueueBytes),
			fmt.Sprintf("%.0f", r.EnqNs), fmt.Sprintf("%.0f", r.DeqNs),
			fmt.Sprintf("%.3f", r.AllocsPerOp), evict, r.Note)
	}
	t.Note("shape target: Eiffel ns/op flat from 10k to 1M flows (<=2x), 0 allocs/op steady state")
	return t
}
