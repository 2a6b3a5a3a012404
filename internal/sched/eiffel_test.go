package sched

import (
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// countOwner is a fake mbuf pool counting buffer returns.
type countOwner struct{ n int }

func (c *countOwner) ReleaseMbuf(p *pkt.Packet) { c.n++ }

func TestEiffelRoundRobinEqualWeights(t *testing.T) {
	e := NewEiffel(1500, 0)
	qa := e.NewQueue(1)
	qb := e.NewQueue(1)
	for i := 0; i < 10; i++ {
		e.EnqueueFlow(qa, mkPkt(1000))
		e.EnqueueFlow(qb, mkPkt(1000))
	}
	for i := 0; i < 20; i++ {
		if e.Dequeue() == nil {
			t.Fatalf("premature empty at %d", i)
		}
	}
	if e.Dequeue() != nil {
		t.Error("should be empty")
	}
	if qa.Served != qb.Served {
		t.Errorf("equal weights served %d vs %d bytes", qa.Served, qb.Served)
	}
}

func TestEiffelWeightedShares(t *testing.T) {
	e := NewEiffel(1500, 4096)
	weights := []float64{1, 2, 4}
	qs := make([]*EiffelQueue, len(weights))
	for i, w := range weights {
		qs[i] = e.NewQueue(w)
		for j := 0; j < 4000; j++ {
			if err := e.EnqueueFlow(qs[i], mkPkt(500)); err != nil {
				t.Fatal(err)
			}
		}
	}
	served := 0
	for served < 3000*500 {
		p := e.Dequeue()
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

// TestEiffelWheelWrap drives the virtual clock several times around the
// 4096-bucket wheel (quantum 1, so every byte is one bucket) and checks
// the FFS scan keeps finding work across the wrap.
func TestEiffelWheelWrap(t *testing.T) {
	e := NewEiffel(1, 1<<20)
	q := e.NewQueue(1)
	const n = 200
	for i := 0; i < n; i++ {
		if err := e.EnqueueFlow(q, mkPkt(150)); err != nil {
			t.Fatal(err)
		}
	}
	// 200 × 150 bytes = 30000 buckets of virtual time: seven wraps.
	for i := 0; i < n; i++ {
		if e.Dequeue() == nil {
			t.Fatalf("premature empty at %d", i)
		}
	}
	if e.Dequeue() != nil || e.Len() != 0 {
		t.Error("not empty after drain")
	}
}

// TestEiffelHorizonClampNoStarvation: a flow so light that one packet's
// virtual service exceeds the wheel depth is clamped to the horizon and
// still served — the Eiffel answer to DRR's fractional-weight livelock.
func TestEiffelHorizonClampNoStarvation(t *testing.T) {
	tel := telemetry.New()
	e := NewEiffel(1500, 0)
	e.SetTelemetry(tel.SchedMetrics("eiffel", "t"))
	heavy := e.NewQueue(1)
	light := e.NewQueue(1e-7)
	for i := 0; i < 20; i++ {
		e.EnqueueFlow(heavy, mkPkt(1000))
		e.EnqueueFlow(light, mkPkt(1000))
	}
	for i := 0; i < 40; i++ {
		if e.Dequeue() == nil {
			t.Fatalf("premature empty at %d", i)
		}
	}
	if light.Served == 0 {
		t.Error("clamped flow starved")
	}
	if mv, ok := tel.Find(`eisr_sched_horizon_clamps_total{plugin="eiffel",instance="t"}`); !ok || mv.Counter == 0 {
		t.Errorf("horizon clamps not recorded: %+v ok=%v", mv, ok)
	}
}

func TestEiffelQueueLimitDrops(t *testing.T) {
	e := NewEiffel(1500, 2)
	q := e.NewQueue(1)
	e.EnqueueFlow(q, mkPkt(10))
	e.EnqueueFlow(q, mkPkt(10))
	if err := e.EnqueueFlow(q, mkPkt(10)); err != ErrQueueFull {
		t.Errorf("limit error = %v", err)
	}
	if q.Drops != 1 {
		t.Errorf("drops = %d", q.Drops)
	}
}

func TestEiffelRemoveQueueReleasesAndCounts(t *testing.T) {
	tel := telemetry.New()
	e := NewEiffel(1500, 0)
	e.SetTelemetry(tel.SchedMetrics("eiffel", "t"))
	own := &countOwner{}
	qa := e.NewQueue(1)
	qb := e.NewQueue(1)
	for i := 0; i < 3; i++ {
		p := mkPkt(10)
		p.Owner = own
		e.EnqueueFlow(qa, p)
	}
	e.EnqueueFlow(qb, mkPkt(20))
	e.RemoveQueue(qa)
	if e.Len() != 1 {
		t.Errorf("Len after remove = %d", e.Len())
	}
	if own.n != 3 {
		t.Errorf("released %d buffers, want 3", own.n)
	}
	if mv, ok := tel.Find(`eisr_sched_purged_total{plugin="eiffel",instance="t"}`); !ok || mv.Counter != 3 {
		t.Errorf("purged counter = %+v ok=%v, want 3", mv, ok)
	}
	if mv, ok := tel.Find(`eisr_sched_backlog{plugin="eiffel",instance="t"}`); !ok || mv.Gauge != 1 {
		t.Errorf("backlog gauge = %+v ok=%v, want 1", mv, ok)
	}
	p := e.Dequeue()
	if p == nil || len(p.Data) != 20 {
		t.Errorf("dequeue after remove = %v", p)
	}
	if e.Dequeue() != nil {
		t.Error("removed queue's packets still scheduled")
	}
	if err := e.EnqueueFlow(qa, mkPkt(1)); err == nil {
		t.Error("enqueue to removed queue should fail")
	}
}

func TestEiffelPurgeIdle(t *testing.T) {
	e := NewEiffel(1500, 0)
	busy := e.NewQueue(1)
	for i := 0; i < 16; i++ {
		e.NewQueue(1)
	}
	e.EnqueueFlow(busy, mkPkt(10))
	if n := e.PurgeIdle(); n != 16 {
		t.Errorf("purged %d idle queues, want 16", n)
	}
	if got := len(e.Queues()); got != 1 {
		t.Errorf("%d queues left, want 1", got)
	}
	if e.Dequeue() == nil {
		t.Error("backlogged queue lost by purge")
	}
}

// PurgeIdle and RemoveQueue swap queues around the live set; interleaved
// idle and busy queues must come out exactly right, and every survivor
// must stay removable.
func TestEiffelPurgeIdleInterleaved(t *testing.T) {
	e := NewEiffel(1500, 0)
	var busy []*EiffelQueue
	for i := 0; i < 12; i++ {
		q := e.NewQueue(1)
		if i%3 == 0 {
			e.EnqueueFlow(q, mkPkt(10))
			busy = append(busy, q)
		}
	}
	if n := e.PurgeIdle(); n != 8 {
		t.Errorf("purged %d idle queues, want 8", n)
	}
	live := e.Queues()
	if len(live) != len(busy) {
		t.Fatalf("%d queues left, want %d", len(live), len(busy))
	}
	for i, q := range live {
		if q.n != 1 || q.idx != i {
			t.Errorf("queue %d: backlog %d, index %d", i, q.n, q.idx)
		}
	}
	for _, q := range busy {
		e.RemoveQueue(q)
	}
	if len(e.Queues()) != 0 || e.Len() != 0 {
		t.Errorf("after removing the survivors: %d queues, %d packets", len(e.Queues()), e.Len())
	}
}

func TestEiffelEnqueueViaFIX(t *testing.T) {
	e := NewEiffel(1500, 0)
	q := e.NewQueue(1)
	p := mkPkt(100)
	p.FIX = q
	if err := e.Enqueue(p); err != nil {
		t.Fatal(err)
	}
	if e.Dequeue() != p {
		t.Error("wrong packet")
	}
	if err := e.Enqueue(mkPkt(1)); err != ErrNoQueue {
		t.Error("packet without queue should be rejected")
	}
}

func TestEiffelIdleFlowNoCredit(t *testing.T) {
	// A flow that sleeps must re-activate at the current virtual time,
	// not burst on banked rank it never used.
	e := NewEiffel(1000, 0)
	qa := e.NewQueue(1)
	qb := e.NewQueue(1)
	for i := 0; i < 20; i++ {
		e.EnqueueFlow(qb, mkPkt(1000))
	}
	for i := 0; i < 10; i++ {
		e.Dequeue()
	}
	for i := 0; i < 10; i++ {
		e.EnqueueFlow(qa, mkPkt(1000))
	}
	aBefore := qa.Served
	e.Dequeue()
	e.Dequeue()
	if qa.Served-aBefore > 2000 {
		t.Errorf("woken flow served %d bytes in 2 slots", qa.Served-aBefore)
	}
}

// TestDRRFractionalWeightNoLivelock is the regression for the integer
// grant truncation: weight 0.0001 at quantum 1500 used to truncate the
// per-visit grant to zero bytes, so a backlogged queue never accumulated
// deficit and Dequeue spun forever. The watchdog turns the old livelock
// into a test failure instead of a hung suite.
func TestDRRFractionalWeightNoLivelock(t *testing.T) {
	d := NewDRR(1500, 0)
	q := d.NewQueue(0.0001)
	for i := 0; i < 5; i++ {
		if err := d.EnqueueFlow(q, mkPkt(1000)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan int, 1)
	go func() {
		out := 0
		for d.Dequeue() != nil {
			out++
		}
		done <- out
	}()
	select {
	case out := <-done:
		if out != 5 {
			t.Errorf("drained %d packets, want 5", out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Dequeue livelocked on a fractional-weight flow")
	}
}

// TestDRRRemoveQueueTelemetry pins the backlog bookkeeping of a purge:
// the purged counter grows, the backlog gauge shrinks, and the queued
// packets return their buffers.
func TestDRRRemoveQueueTelemetry(t *testing.T) {
	tel := telemetry.New()
	d := NewDRR(1500, 0)
	d.SetTelemetry(tel.SchedMetrics("drr", "t"))
	own := &countOwner{}
	q := d.NewQueue(1)
	for i := 0; i < 4; i++ {
		p := mkPkt(10)
		p.Owner = own
		d.EnqueueFlow(q, p)
	}
	d.RemoveQueue(q)
	if own.n != 4 {
		t.Errorf("released %d buffers, want 4", own.n)
	}
	if mv, ok := tel.Find(`eisr_sched_purged_total{plugin="drr",instance="t"}`); !ok || mv.Counter != 4 {
		t.Errorf("purged counter = %+v ok=%v, want 4", mv, ok)
	}
	if mv, ok := tel.Find(`eisr_sched_backlog{plugin="drr",instance="t"}`); !ok || mv.Gauge != 0 {
		t.Errorf("backlog gauge = %+v ok=%v, want 0", mv, ok)
	}
}
