package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
)

// TestQuickRTSCMinProperties: rtsc.min mirrors the BSD rtsc_min, which
// is exact under the scheduler's usage pattern and an approximation
// outside it.
func TestQuickRTSCMinProperties(t *testing.T) {
	// In H-FSC, min is only ever invoked with the class's own service
	// curve — the same shape re-anchored at the current (time, work)
	// point, which by construction lies on or below the old curve. Under
	// exactly that usage the merged curve is the pointwise minimum.
	sameShape := func(m1, m2 uint32, dx uint16, xOff uint16, yFrac uint8) bool {
		c := Curve{M1: float64(m1%1e6) + 1, D: float64(dx%100) / 100, M2: float64(m2%1e6) + 1}
		var old rtsc
		old.set(c, 0, 0)
		x := float64(xOff%100) / 10
		// 0..99% of the old curve: strictly below it. Exactly on the
		// curve is a float knife-edge where the BSD algorithm's
		// keep-vs-replace tie break flips on rounding; the scheduler
		// never lands there (service strictly lags its curve while the
		// class is being re-activated).
		y := old.x2y(x) * float64(yFrac%100) / 100
		merged := old
		merged.min(c, x, y)
		var nb rtsc
		nb.set(c, x, y)
		for i := 0; i <= 25; i++ {
			tm := x + float64(i)*0.37
			got := merged.x2y(tm)
			lo := math.Min(old.x2y(tm), nb.x2y(tm))
			if math.Abs(got-lo) > lo*1e-4+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(sameShape, &quick.Config{MaxCount: 800}); err != nil {
		t.Errorf("same-shape min: %v", err)
	}
}

// TestQuickRTSCInverse: y2x is a right inverse of x2y on the curve's
// range.
func TestQuickRTSCInverse(t *testing.T) {
	f := func(m1, m2 uint32, dx uint16, probe uint32) bool {
		c := Curve{M1: float64(m1%1e6) + 1, D: float64(dx%100) / 100, M2: float64(m2%1e6) + 1}
		var r rtsc
		r.set(c, 1, 10)
		v := 10 + float64(probe%1e7)
		tm := r.y2x(v)
		if math.IsInf(tm, 1) {
			return true
		}
		back := r.x2y(tm)
		return math.Abs(back-v) < 1e-3*v+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickDRRConservation: packets out equals packets in for random
// enqueue patterns (work conservation, no loss below queue limits).
func TestQuickDRRConservation(t *testing.T) {
	f := func(seed int64, flowsRaw, pktsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nFlows := int(flowsRaw%8) + 1
		nPkts := int(pktsRaw%200) + 1
		d := NewDRR(1500, nPkts+1)
		qs := make([]*DRRQueue, nFlows)
		for i := range qs {
			qs[i] = drrQueue(d, float64(1+rng.Intn(4)))
		}
		in := 0
		for i := 0; i < nPkts; i++ {
			q := qs[rng.Intn(nFlows)]
			if err := d.EnqueueFlow(q, &pkt.Packet{Data: make([]byte, 64+rng.Intn(1400))}); err == nil {
				in++
			}
		}
		out := 0
		for d.Dequeue() != nil {
			out++
		}
		return in == out && d.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickEiffelConservation: packets out equals packets in for random
// enqueue patterns, mirroring the DRR property — the wheel never loses
// or duplicates a packet across rotations and horizon clamps.
func TestQuickEiffelConservation(t *testing.T) {
	f := func(seed int64, flowsRaw, pktsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nFlows := int(flowsRaw%8) + 1
		nPkts := int(pktsRaw%200) + 1
		e := NewEiffel(1500, nPkts+1)
		qs := make([]*EiffelQueue, nFlows)
		for i := range qs {
			// Weights spanning nine orders of magnitude: tiny weights
			// exercise the horizon clamp, not a livelock.
			qs[i] = eiffelQueue(e, math.Pow(10, -float64(rng.Intn(9)))*float64(1+rng.Intn(4)))
		}
		in := 0
		for i := 0; i < nPkts; i++ {
			q := qs[rng.Intn(nFlows)]
			if err := e.EnqueueFlow(q, &pkt.Packet{Data: make([]byte, 64+rng.Intn(1400))}); err == nil {
				in++
			}
		}
		out := 0
		for e.Dequeue() != nil {
			out++
		}
		return in == out && e.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickEiffelDRRFairness: on identical backlogged arrivals, Eiffel's
// per-flow service agrees with DRR's within quantum bounds. Both
// disciplines guarantee weighted shares with per-round (DRR) or
// per-bucket (Eiffel) granularity, so while every flow stays backlogged
// the divergence is bounded by a few quanta of the heaviest flow plus a
// packet of slop per discipline.
func TestQuickEiffelDRRFairness(t *testing.T) {
	const quantum, maxPkt = 1500, 1500
	f := func(seed int64, flowsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nFlows := int(flowsRaw%4) + 2
		d := NewDRR(quantum, 1<<20)
		e := NewEiffel(quantum, 1<<20)
		dqs := make([]*DRRQueue, nFlows)
		eqs := make([]*EiffelQueue, nFlows)
		for i := 0; i < nFlows; i++ {
			w := float64(1 + rng.Intn(4))
			dqs[i] = drrQueue(d, w)
			eqs[i] = eiffelQueue(e, w)
		}
		// Identical arrivals, heavy enough to stay backlogged throughout.
		const perFlow = 600
		for i := 0; i < nFlows; i++ {
			for j := 0; j < perFlow; j++ {
				size := 64 + rng.Intn(maxPkt-64)
				d.EnqueueFlow(dqs[i], &pkt.Packet{Data: make([]byte, size)})
				e.EnqueueFlow(eqs[i], &pkt.Packet{Data: make([]byte, size)})
			}
		}
		// Serve the same amount of work from each discipline, stopping
		// well before any flow can drain.
		const serve = perFlow / 2 * 700
		for served := 0; served < serve; {
			p := d.Dequeue()
			if p == nil {
				return false
			}
			served += len(p.Data)
		}
		for served := 0; served < serve; {
			p := e.Dequeue()
			if p == nil {
				return false
			}
			served += len(p.Data)
		}
		for i := 0; i < nFlows; i++ {
			diff := int64(dqs[i].Served) - int64(eqs[i].Served)
			if diff < 0 {
				diff = -diff
			}
			tol := int64(4*quantum*dqs[i].Weight) + 4*maxPkt
			if diff > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSchedDrainAnyWeight: behind the link simulator, both DRR and
// Eiffel drain a backlog completely for any weight > 0, however small —
// the regression surface of the fractional-weight livelock. The
// watchdog converts a livelock into a failure.
func TestQuickSchedDrainAnyWeight(t *testing.T) {
	f := func(seed int64, expRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		weight := math.Pow(10, -float64(expRaw%9)) * (1 + rng.Float64())
		drain := func(s Scheduler, enq func(p *pkt.Packet) error) bool {
			for i := 0; i < 50; i++ {
				if err := enq(&pkt.Packet{Data: make([]byte, 64+rng.Intn(1400))}); err != nil {
					return false
				}
			}
			sim := NewLinkSim(s, 1e6)
			done := make(chan int, 1)
			go func() { done <- len(sim.Run(math.Inf(1))) }()
			select {
			case n := <-done:
				return n == 50 && s.Len() == 0
			case <-time.After(10 * time.Second):
				return false
			}
		}
		d := NewDRR(1500, 0)
		dq := drrQueue(d, weight)
		if !drain(d, func(p *pkt.Packet) error { return d.EnqueueFlow(dq, p) }) {
			return false
		}
		e := NewEiffel(1500, 0)
		eq := eiffelQueue(e, weight)
		return drain(e, func(p *pkt.Packet) error { return e.EnqueueFlow(eq, p) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickHFSCConservation: everything enqueued is eventually
// dequeued under link-sharing service.
func TestQuickHFSCConservation(t *testing.T) {
	f := func(seed int64, classesRaw, pktsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nClasses := int(classesRaw%4) + 1
		nPkts := int(pktsRaw%100) + 1
		h := NewHFSC(1e6)
		cls := make([]*Class, nClasses)
		for i := range cls {
			ls := LinearCurve(1e5 * float64(1+rng.Intn(5)))
			cls[i], _ = h.AddClass("", nil, nil, &ls, nil, nil)
		}
		for i := 0; i < nPkts; i++ {
			c := cls[rng.Intn(nClasses)]
			if h.EnqueueClass(c, &pkt.Packet{Data: make([]byte, 64+rng.Intn(1400))}, 0) != nil {
				return false
			}
		}
		sim := NewHFSCLinkSim(h, 1e6)
		out := sim.Run(1e6) // effectively unbounded time
		return len(out) == nPkts && h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
