package sched

import (
	"math"
	"testing"

	"github.com/routerplugins/eisr/internal/aiu"
)

// fill enqueues n packets of size bytes into a class at time t.
func fill(t *testing.T, h *HFSC, cl *Class, n, size int, now float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := h.EnqueueClass(cl, mkPkt(size), now); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHFSCSingleClassDrains(t *testing.T) {
	h := NewHFSC(1e6)
	rt := LinearCurve(5e5)
	cl, err := h.AddClass("a", nil, &rt, &rt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, h, cl, 10, 1000, 0)
	sim := NewHFSCLinkSim(h, 1e6)
	out := sim.Run(1)
	if len(out) != 10 {
		t.Fatalf("sent %d packets, want 10", len(out))
	}
	if h.Len() != 0 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestHFSCEnqueueNonLeafFails(t *testing.T) {
	h := NewHFSC(1e6)
	ls := LinearCurve(1e6)
	parent, _ := h.AddClass("agg", nil, nil, &ls, nil, nil)
	if _, err := h.AddClass("leaf", parent, nil, &ls, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.EnqueueClass(parent, mkPkt(10), 0); err == nil {
		t.Error("enqueue into interior class should fail")
	}
	if err := h.EnqueueClass(h.Root(), mkPkt(10), 0); err == nil {
		t.Error("enqueue into root should fail")
	}
	// Adding a child under a leaf with queued packets fails; an empty
	// leaf converts to interior.
	leaf, _ := h.AddClass("leaf2", nil, nil, &ls, nil, nil)
	if err := h.EnqueueClass(leaf, mkPkt(10), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddClass("x", leaf, nil, &ls, nil, nil); err == nil {
		t.Error("child under backlogged leaf should fail")
	}
	empty, _ := h.AddClass("leaf3", nil, nil, &ls, nil, nil)
	if _, err := h.AddClass("y", empty, nil, &ls, nil, nil); err != nil {
		t.Errorf("child under empty leaf should convert it: %v", err)
	}
	if empty.queue != nil {
		t.Error("converted class still has a queue")
	}
}

// TestHFSCRealTimeGuarantee: a class with a real-time curve of rate R
// must receive at least R*t - maxPkt service while backlogged, no matter
// how much competing link-share traffic exists.
func TestHFSCRealTimeGuarantee(t *testing.T) {
	const link = 1e6 // 1 MB/s
	h := NewHFSC(link)
	rt := LinearCurve(3e5) // 30% guaranteed
	lsSmall := LinearCurve(1e5)
	lsBig := LinearCurve(9e5)
	guaranteed, _ := h.AddClass("g", nil, &rt, &lsSmall, nil, nil)
	hog, _ := h.AddClass("hog", nil, nil, &lsBig, nil, nil)
	fill(t, h, guaranteed, 2000, 1000, 0)
	fill(t, h, hog, 2000, 1000, 0)

	sim := NewHFSCLinkSim(h, link)
	var servedG float64
	for sim.Now < 1.0 {
		p := sim.Step()
		if p == nil {
			break
		}
		if p.FIX == nil { // tag by pointer identity below instead
		}
		_ = p
		// Track via class counters.
		servedG = float64(guaranteed.Served)
		if guaranteed.queue.Len() == 0 {
			break
		}
		minDue := 3e5*sim.Now - 2000 // one packet slack
		if servedG < minDue {
			t.Fatalf("t=%.4f: guaranteed class served %.0f < %.0f", sim.Now, servedG, minDue)
		}
	}
	if servedG == 0 {
		t.Fatal("guaranteed class never served")
	}
}

// TestHFSCLinkSharingProportional: with no real-time curves, backlogged
// sibling classes share the link in proportion to their link-share
// curves.
func TestHFSCLinkSharingProportional(t *testing.T) {
	const link = 1e6
	h := NewHFSC(link)
	ls1 := LinearCurve(1e5)
	ls3 := LinearCurve(3e5)
	a, _ := h.AddClass("a", nil, nil, &ls1, nil, nil)
	b, _ := h.AddClass("b", nil, nil, &ls3, nil, nil)
	fill(t, h, a, 4000, 500, 0)
	fill(t, h, b, 4000, 500, 0)
	sim := NewHFSCLinkSim(h, link)
	sim.Run(1.0) // 1 second: 1 MB of service; both stay backlogged
	if a.queue.Len() == 0 || b.queue.Len() == 0 {
		t.Fatal("a class drained; shares not comparable")
	}
	ratio := float64(b.Served) / float64(a.Served)
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("link share ratio = %.2f, want ~3", ratio)
	}
}

// TestHFSCHierarchy: link-sharing applies per level — two departments
// split the link 50/50, and within one department two users split that
// half 1:1, giving 25/25/50 overall.
func TestHFSCHierarchy(t *testing.T) {
	const link = 1e6
	h := NewHFSC(link)
	half := LinearCurve(5e5)
	quarter := LinearCurve(2.5e5)
	deptA, _ := h.AddClass("deptA", nil, nil, &half, nil, nil)
	deptB, _ := h.AddClass("deptB", nil, nil, &half, nil, nil)
	u1, _ := h.AddClass("u1", deptA, nil, &quarter, nil, nil)
	u2, _ := h.AddClass("u2", deptA, nil, &quarter, nil, nil)
	fill(t, h, u1, 4000, 500, 0)
	fill(t, h, u2, 4000, 500, 0)
	fill(t, h, deptB, 4000, 500, 0)
	_ = deptB
	sim := NewHFSCLinkSim(h, link)
	sim.Run(1.0)
	total := float64(u1.Served + u2.Served + deptB.Served)
	for _, tc := range []struct {
		name  string
		share float64
		want  float64
	}{
		{"u1", float64(u1.Served) / total, 0.25},
		{"u2", float64(u2.Served) / total, 0.25},
		{"deptB", float64(deptB.Served) / total, 0.50},
	} {
		if math.Abs(tc.share-tc.want) > 0.06 {
			t.Errorf("%s share = %.3f want %.2f", tc.name, tc.share, tc.want)
		}
	}
}

// TestHFSCDecoupling demonstrates the paper's motivation for H-FSC: "one
// of its main advantages is the decoupling of delay and bandwidth
// allocation". Two classes with the same long-term rate; one has a
// concave curve (high m1 burst). Its first packets depart much sooner,
// while long-term shares stay equal.
func TestHFSCDecoupling(t *testing.T) {
	const link = 1e6
	h := NewHFSC(link)
	lowDelay := Curve{M1: 8e5, D: 0.01, M2: 2e5}
	flat := LinearCurve(2e5)
	ls := LinearCurve(2e5)
	fast, _ := h.AddClass("lowdelay", nil, &lowDelay, &ls, nil, nil)
	slow, _ := h.AddClass("flat", nil, &flat, &ls, nil, nil)
	// Backlog both at t=0 with 10 packets of 1000B.
	fill(t, h, fast, 10, 1000, 0)
	fill(t, h, slow, 10, 1000, 0)

	sim := NewHFSCLinkSim(h, link)
	firstFast, firstSlow := -1.0, -1.0
	fastStart := fast.Served
	for sim.Now < 0.2 && (firstFast < 0 || firstSlow < 0) {
		before := [2]uint64{fast.Served, slow.Served}
		p := sim.Step()
		if p == nil {
			break
		}
		if fast.Served > before[0] && firstFast < 0 {
			firstFast = sim.Now
		}
		if slow.Served > before[1] && firstSlow < 0 {
			firstSlow = sim.Now
		}
	}
	_ = fastStart
	if firstFast < 0 || firstSlow < 0 {
		t.Fatalf("first departures not observed: fast=%v slow=%v", firstFast, firstSlow)
	}
	// The deadline of the first low-delay packet is 1000B / 8e5 B/s =
	// 1.25 ms; for the flat class it is 1000/2e5 = 5 ms. The low-delay
	// class must depart strictly earlier.
	if firstFast >= firstSlow {
		t.Errorf("low-delay class first departure %.4fs not before flat %.4fs", firstFast, firstSlow)
	}
}

// TestHFSCUpperLimit: a class with an upper-limit curve may not exceed
// it even when the link is otherwise idle.
func TestHFSCUpperLimit(t *testing.T) {
	const link = 1e6
	h := NewHFSC(link)
	ls := LinearCurve(1e6)
	ul := LinearCurve(1e5) // capped at 10% of the link
	capped, _ := h.AddClass("capped", nil, nil, &ls, &ul, nil)
	fill(t, h, capped, 1000, 1000, 0)
	sim := NewHFSCLinkSim(h, link)
	sim.Run(1.0)
	// At most ~1e5 bytes plus one packet of slack in 1 second.
	if float64(capped.Served) > 1e5+2000 {
		t.Errorf("capped class served %d bytes in 1s, limit 1e5", capped.Served)
	}
	if capped.Served == 0 {
		t.Error("capped class never served")
	}
}

// TestHFSCReactivationNoBanking: a class that idles must not accumulate
// virtual-time credit it can burst with later.
func TestHFSCReactivationNoBanking(t *testing.T) {
	const link = 1e6
	h := NewHFSC(link)
	ls := LinearCurve(5e5)
	a, _ := h.AddClass("a", nil, nil, &ls, nil, nil)
	b, _ := h.AddClass("b", nil, nil, &ls, nil, nil)
	// b backlogged alone for 0.5s of service.
	fill(t, h, b, 1000, 1000, 0)
	sim := NewHFSCLinkSim(h, link)
	for sim.Now < 0.5 {
		if sim.Step() == nil {
			break
		}
	}
	served0 := b.Served
	// a activates; from here on, shares must be ~equal.
	fill(t, h, a, 1000, 1000, sim.Now)
	fill(t, h, b, 1000, 1000, sim.Now)
	start := sim.Now
	for sim.Now < start+0.4 {
		if sim.Step() == nil {
			break
		}
	}
	deltaA := float64(a.Served)
	deltaB := float64(b.Served - served0)
	if deltaA == 0 || deltaB == 0 {
		t.Fatalf("no service after reactivation: a=%v b=%v", deltaA, deltaB)
	}
	ratio := deltaB / deltaA
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("post-activation share ratio %.2f, want ~1", ratio)
	}
}

// TestHSFDRRLeaf: the §8 Hierarchical Scheduling Framework — flows
// inside one H-FSC leaf are served fairly by a DRR rather than FIFO.
func TestHSFDRRLeaf(t *testing.T) {
	const link = 1e6
	h := NewHFSC(link)
	leafQ := NewDRRLeaf(1500)
	ls := LinearCurve(1e6)
	cls, _ := h.AddClass("shared", nil, nil, &ls, nil, leafQ)
	f1 := drrQueue(leafQ.DRR, 1)
	f2 := drrQueue(leafQ.DRR, 1)
	for i := 0; i < 100; i++ {
		p := mkPkt(1000)
		p.FIX = f1
		if err := h.EnqueueClass(cls, p, 0); err != nil {
			t.Fatal(err)
		}
		q := mkPkt(1000)
		q.FIX = f2
		if err := h.EnqueueClass(cls, q, 0); err != nil {
			t.Fatal(err)
		}
	}
	sim := NewHFSCLinkSim(h, link)
	// Serve half the backlog; both flows must advance in step.
	for i := 0; i < 100; i++ {
		if sim.Step() == nil {
			t.Fatal("premature idle")
		}
	}
	d := int64(f1.Served) - int64(f2.Served)
	if d < -3000 || d > 3000 {
		t.Errorf("intra-class fairness: f1=%d f2=%d", f1.Served, f2.Served)
	}
}

// slotFIX stands in for the AIU's flow record in a packet's FIX: a flow
// slot and nothing else.
type slotFIX uint32

func (f slotFIX) Slot() uint32 { return uint32(f) }

// The AIU's flow record is the FIX a per-flow leaf keys its queues by.
var _ flowSlotter = (*aiu.FlowRecord)(nil)

// TestDRRLeafPerFlowSlots: a per-flow leaf queues each flow record's
// packets at the record's slot, keyed by the FIX generation: a newer
// flow in the slot resets the queue, dropping the older flow's packets,
// a late packet of the older flow is refused, and a packet with no flow
// record goes to the default queue.
func TestDRRLeafPerFlowSlots(t *testing.T) {
	l := NewDRRLeaf(1500)
	l.PerFlow = true
	enq := func(slot uint32, gen uint64) error {
		p := mkPkt(100)
		p.FIX, p.FIXGen = slotFIX(slot), gen
		return l.Enqueue(p)
	}
	for _, f := range []struct {
		slot uint32
		gen  uint64
	}{{0, 0}, {0, 0}, {7, 3}} {
		if err := enq(f.slot, f.gen); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Enqueue(mkPkt(100)); err != nil {
		t.Fatal(err)
	}
	if got := l.DRR.slab.Owned(); got != 3 {
		t.Fatalf("owned queues = %d, want 3 (default, slot 0, slot 7)", got)
	}
	if q, _ := l.DRR.Queue(1, 0); q.Len() != 2 {
		t.Fatalf("flow slot 0 holds %d packets, want 2", q.Len())
	}
	// Slot 0's record now belongs to a newer flow.
	if err := enq(0, 1); err != nil {
		t.Fatal(err)
	}
	if q, _ := l.DRR.Queue(1, 1); q.Len() != 1 || l.DRR.Len() != 3 {
		t.Fatalf("after reset: slot queue %d packets, backlog %d; want 1, 3", q.Len(), l.DRR.Len())
	}
	if err := enq(0, 0); err != ErrNoQueue {
		t.Fatalf("late packet of the older flow: err = %v, want ErrNoQueue", err)
	}
}

func TestRTSCCurveOps(t *testing.T) {
	var r rtsc
	r.set(Curve{M1: 100, D: 2, M2: 10}, 1, 50)
	if got := r.x2y(0.5); got != 50 {
		t.Errorf("x2y before anchor = %v", got)
	}
	if got := r.x2y(2); got != 150 {
		t.Errorf("x2y mid-burst = %v", got)
	}
	if got := r.x2y(4); got != 50+200+10 {
		t.Errorf("x2y post-burst = %v", got)
	}
	if got := r.y2x(150); got != 2 {
		t.Errorf("y2x mid = %v", got)
	}
	if got := r.y2x(260); got != 4 {
		t.Errorf("y2x post = %v", got)
	}
	// Zero second slope: unreachable service.
	var z rtsc
	z.set(Curve{M1: 100, D: 1, M2: 0}, 0, 0)
	if !math.IsInf(z.y2x(500), 1) {
		t.Error("y2x beyond a flat curve should be +Inf")
	}
}
