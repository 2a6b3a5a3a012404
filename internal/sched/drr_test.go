package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/routerplugins/eisr/internal/pkt"
)

func mkPkt(size int) *pkt.Packet {
	return &pkt.Packet{Data: make([]byte, size)}
}

func TestFIFOOrderAndLimit(t *testing.T) {
	f := NewFIFO(3)
	for i := 0; i < 3; i++ {
		p := mkPkt(10 + i)
		if err := f.Enqueue(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Enqueue(mkPkt(1)); err != ErrQueueFull {
		t.Errorf("overflow error = %v", err)
	}
	if f.Head() == nil || len(f.Head().Data) != 10 {
		t.Error("Head wrong")
	}
	for i := 0; i < 3; i++ {
		p := f.Dequeue()
		if p == nil || len(p.Data) != 10+i {
			t.Fatalf("dequeue %d wrong: %v", i, p)
		}
	}
	if f.Dequeue() != nil || f.Len() != 0 {
		t.Error("FIFO not empty after drain")
	}
}

// A FIFO starts with no backing array and grows geometrically while its
// backlog reaches new highs, never past the limit; compaction and
// growth keep arrival order.
func TestFIFOGrowsOnDemandToLimit(t *testing.T) {
	f := NewFIFO(100)
	if cap(f.q) != 0 {
		t.Fatalf("new FIFO holds %d slots, want none", cap(f.q))
	}
	next, want := 0, 0
	push := func() {
		t.Helper()
		if err := f.Enqueue(mkPkt(next)); err != nil {
			t.Fatalf("enqueue %d: %v", next, err)
		}
		next++
	}
	pop := func() {
		t.Helper()
		if p := f.Dequeue(); p == nil || len(p.Data) != want {
			t.Fatalf("dequeue: got %v, want packet %d", p, want)
		}
		want++
	}
	var caps []int
	for i := 0; i < 100; i++ {
		push()
		if c := cap(f.q); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	if got, exp := fmt.Sprint(caps), "[4 8 16 32 64 100]"; got != exp {
		t.Errorf("capacities %s, want %s", got, exp)
	}
	if err := f.Enqueue(mkPkt(0)); err != ErrQueueFull {
		t.Errorf("enqueue past the limit: %v", err)
	}
	// A steady backlog below the peak compacts in place: no growth.
	for i := 0; i < 1000; i++ {
		pop()
		push()
	}
	if cap(f.q) != 100 {
		t.Errorf("capacity %d after steady state, want 100", cap(f.q))
	}
	for f.Len() > 0 {
		pop()
	}
}

// Queues lists queues in creation order; removal moves the last queue
// into the freed slot.
func TestDRRQueuesOrder(t *testing.T) {
	d := NewDRR(1500, 0)
	var qs []*DRRQueue
	names := map[*DRRQueue]string{}
	for _, l := range []string{"a", "b", "c", "d"} {
		q := d.NewQueue(1)
		qs = append(qs, q)
		names[q] = l
	}
	label := func() string {
		var out []string
		for _, q := range d.Queues() {
			out = append(out, names[q])
		}
		return strings.Join(out, "")
	}
	if got := label(); got != "abcd" {
		t.Errorf("queues %q, want abcd", got)
	}
	d.RemoveQueue(qs[1])
	if got := label(); got != "adc" {
		t.Errorf("after removing b: %q, want adc", got)
	}
	d.RemoveQueue(qs[2])
	d.RemoveQueue(qs[2]) // a second removal is a no-op
	if got := label(); got != "ad" {
		t.Errorf("after removing c: %q, want ad", got)
	}
	d.RemoveQueue(qs[3])
	d.RemoveQueue(qs[0])
	if got := label(); got != "" {
		t.Errorf("after removing all: %q", got)
	}
}

func TestDRRRoundRobinEqualWeights(t *testing.T) {
	d := NewDRR(1500, 0)
	qa := d.NewQueue(1)
	qb := d.NewQueue(1)
	for i := 0; i < 10; i++ {
		d.EnqueueFlow(qa, mkPkt(1000))
		d.EnqueueFlow(qb, mkPkt(1000))
	}
	for i := 0; i < 20; i++ {
		if d.Dequeue() == nil {
			t.Fatalf("premature empty at %d", i)
		}
	}
	if d.Dequeue() != nil {
		t.Error("should be empty")
	}
	if qa.Served != qb.Served {
		t.Errorf("equal weights served %d vs %d bytes", qa.Served, qb.Served)
	}
}

// TestDRRWeightedShares is the §6.1 link-sharing behaviour: backlogged
// flows receive bandwidth proportional to their weights.
func TestDRRWeightedShares(t *testing.T) {
	d := NewDRR(1500, 4096)
	weights := []float64{1, 2, 4}
	qs := make([]*DRRQueue, len(weights))
	for i, w := range weights {
		qs[i] = d.NewQueue(w)
		for j := 0; j < 4000; j++ {
			if err := d.EnqueueFlow(qs[i], mkPkt(500)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Serve a fixed amount of work while everyone stays backlogged.
	served := 0
	for served < 3000*500 {
		p := d.Dequeue()
		if p == nil {
			t.Fatal("unexpected empty")
		}
		served += len(p.Data)
	}
	base := float64(qs[0].Served)
	for i, w := range weights {
		ratio := float64(qs[i].Served) / base
		if ratio < w*0.9 || ratio > w*1.1 {
			t.Errorf("flow %d (weight %v): served ratio %.2f", i, w, ratio)
		}
	}
}

// TestDRRFairnessBound verifies the Shreedhar-Varghese fairness
// property on random packet sizes: between two continuously backlogged
// equal-weight flows, the service difference never exceeds
// quantum + maxPacket.
func TestDRRFairnessBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const quantum, maxPkt = 1500, 1500
	d := NewDRR(quantum, 1<<20)
	qa := d.NewQueue(1)
	qb := d.NewQueue(1)
	for i := 0; i < 5000; i++ {
		d.EnqueueFlow(qa, mkPkt(64+rng.Intn(maxPkt-64)))
		d.EnqueueFlow(qb, mkPkt(64+rng.Intn(maxPkt-64)))
	}
	for i := 0; i < 8000; i++ {
		if d.Dequeue() == nil {
			break
		}
		if qa.fifo.Len() == 0 || qb.fifo.Len() == 0 {
			break // fairness bound applies only while both backlogged
		}
		diff := int64(qa.Served) - int64(qb.Served)
		if diff < 0 {
			diff = -diff
		}
		if diff > quantum+maxPkt {
			t.Fatalf("fairness violated at step %d: |%d - %d| = %d > %d",
				i, qa.Served, qb.Served, diff, quantum+maxPkt)
		}
	}
}

func TestDRRIdleFlowNoCredit(t *testing.T) {
	// A flow that goes idle must not bank deficit: after rejoining, it
	// does not burst beyond quantum + maxPkt relative to fair share.
	d := NewDRR(1000, 0)
	qa := d.NewQueue(1)
	qb := d.NewQueue(1)
	for i := 0; i < 20; i++ {
		d.EnqueueFlow(qb, mkPkt(1000))
	}
	// Drain 10 packets of b while a idles.
	for i := 0; i < 10; i++ {
		d.Dequeue()
	}
	// a wakes up with a burst.
	for i := 0; i < 10; i++ {
		d.EnqueueFlow(qa, mkPkt(1000))
	}
	aBefore := qa.Served
	// Next two dequeues must alternate a/b, not serve a 10 times.
	d.Dequeue()
	d.Dequeue()
	if qa.Served-aBefore > 2000 {
		t.Errorf("woken flow served %d bytes in 2 slots", qa.Served-aBefore)
	}
}

func TestDRRQueueLimitDrops(t *testing.T) {
	d := NewDRR(1500, 2)
	q := d.NewQueue(1)
	d.EnqueueFlow(q, mkPkt(10))
	d.EnqueueFlow(q, mkPkt(10))
	if err := d.EnqueueFlow(q, mkPkt(10)); err != ErrQueueFull {
		t.Errorf("limit error = %v", err)
	}
	if q.Drops != 1 {
		t.Errorf("drops = %d", q.Drops)
	}
}

func TestDRRRemoveQueue(t *testing.T) {
	d := NewDRR(1500, 0)
	qa := d.NewQueue(1)
	qb := d.NewQueue(1)
	d.EnqueueFlow(qa, mkPkt(10))
	d.EnqueueFlow(qb, mkPkt(20))
	d.RemoveQueue(qa)
	if d.Len() != 1 {
		t.Errorf("Len after remove = %d", d.Len())
	}
	p := d.Dequeue()
	if p == nil || len(p.Data) != 20 {
		t.Errorf("dequeue after remove = %v", p)
	}
	if d.Dequeue() != nil {
		t.Error("removed queue's packets still scheduled")
	}
	// Enqueue to removed queue fails.
	if err := d.EnqueueFlow(qa, mkPkt(1)); err == nil {
		t.Error("enqueue to removed queue should fail")
	}
}

func TestDRREnqueueViaFIX(t *testing.T) {
	d := NewDRR(1500, 0)
	q := d.NewQueue(1)
	p := mkPkt(100)
	p.FIX = q
	if err := d.Enqueue(p); err != nil {
		t.Fatal(err)
	}
	if d.Dequeue() != p {
		t.Error("wrong packet")
	}
	if err := d.Enqueue(mkPkt(1)); err == nil {
		t.Error("packet without queue should be rejected")
	}
}

func TestALTQDRRSpreadsFlows(t *testing.T) {
	a := NewALTQDRR(16, 1500)
	// Three flows, distinct 5-tuples.
	mk := func(sport uint16) *pkt.Packet {
		data, _ := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("10.0.0.2"),
			SrcPort: sport, DstPort: 9, Payload: make([]byte, 492),
		})
		p, _ := pkt.NewPacket(data, 0)
		return p
	}
	for i := 0; i < 30; i++ {
		for s := uint16(1); s <= 3; s++ {
			if err := a.Enqueue(mk(1000 + s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a.Len() != 90 {
		t.Fatalf("Len = %d", a.Len())
	}
	// Count service per flow over a full drain.
	got := map[uint16]int{}
	for p := a.Dequeue(); p != nil; p = a.Dequeue() {
		got[p.Key.SrcPort]++
	}
	for s := uint16(1001); s <= 1003; s++ {
		if got[s] != 30 {
			t.Errorf("flow %d got %d packets", s, got[s])
		}
	}
}
