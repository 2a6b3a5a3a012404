// Package fastpathtest is the fastpath analyzer fixture: a marked root
// exercising every forbidden construct, traversal into a same-package
// helper, the slowpath boundary, the RLock exemption, and allow
// suppression.
package fastpathtest

import (
	"fmt"
	"sync"

	"github.com/routerplugins/eisr/internal/telemetry"
)

type pipeline struct {
	mu sync.RWMutex
	ch chan int
	m  map[int]int
}

//eisr:fastpath
func (p *pipeline) handle(n int) int {
	defer p.release()     // want "defer on the fast path"
	p.mu.Lock()           // want "acquires exclusive RWMutex.Lock on the fast path"
	p.ch <- n             // want "channel send on the fast path"
	v := <-p.ch           // want "channel receive on the fast path"
	buf := make([]int, n) // want "make allocates on the fast path"
	fmt.Println(n)        // want "calls fmt.Println on the fast path"
	m := map[int]int{}    // want "map literal allocates on the fast path"
	s := []int{n}         // want "slice literal allocates on the fast path"
	go p.release()        // want "goroutine launch on the fast path"
	return v + len(buf) + len(m) + len(s) + p.helper(n)
}

//eisr:fastpath
func (p *pipeline) wait() {
	select {} // want "select without a default clause on the fast path"
}

// offer and poll are the wire-driver backpressure idiom: a select with
// a default clause cannot block, so the statement and its case
// operations are exempt.
//
//eisr:fastpath
func (p *pipeline) offer(n int) bool {
	select {
	case p.ch <- n: // negative: send inside a non-blocking select
		return true
	default:
		return false
	}
}

//eisr:fastpath
func (p *pipeline) poll() (int, bool) {
	select {
	case v := <-p.ch: // negative: receive inside a non-blocking select
		return v, true
	default:
		return 0, false
	}
}

//eisr:fastpath
func (p *pipeline) drainOne() {
	select {
	case <-p.ch: // negative: bare receive inside a non-blocking select
	default:
	}
	select {
	case v := <-p.ch: // negative: the exemption covers the comm clause only
		p.ch <- v // want "channel send on the fast path"
	default:
	}
}

func (p *pipeline) release() {}

// helper is reachable from the handle root, so it is held to the same
// discipline even without its own marker.
func (p *pipeline) helper(n int) int {
	x := new(int) // want "helper: new allocates on the fast path"
	return n + *x
}

// slow is the declared fast/slow boundary; its body is not checked.
//
//eisr:slowpath
func (p *pipeline) slow(n int) []int {
	return make([]int, n)
}

//eisr:fastpath
func (p *pipeline) readSide(n int) int {
	p.mu.RLock() // negative: read locks are allowed on the fast path
	v := p.m[n]
	p.mu.RUnlock()
	q := p.slow(n) // negative: calling into the slow path is the split
	//eisr:allow(fastpath) instrumentation scratch space, compiled out in production builds
	tmp := make([]int, 1)
	return v + len(q) + len(tmp)
}

// unmarked is reachable from no root: anything goes.
func unmarked(n int) []int {
	return make([]int, n)
}

// meter holds telemetry cells wired at assembly time, the way the
// instrumented core does.
type meter struct {
	pkts  *telemetry.Counter
	depth *telemetry.Gauge
	lat   *telemetry.Histogram
	sched *telemetry.SchedMetrics
	reg   *telemetry.Telemetry
}

//eisr:fastpath
func (m *meter) record(ns uint64) {
	m.pkts.Inc()                                   // negative: certified record method
	m.pkts.Add(2)                                  // negative: certified record method
	m.depth.Set(3)                                 // negative: certified record method
	m.lat.Observe(ns)                              // negative: certified record method
	m.sched.RecordEnqueue()                        // negative: certified record method
	if te := m.reg.Tracer().Acquire(); te != nil { // negative: certified trace acquisition
		te.RecordHop("sched", 1, "drr0", 5) // negative: certified record method
		te.Commit("forwarded", 0, 1, 9)     // negative: certified record method
	}
	m.reg.Counter("pkts", "help") // want "calls telemetry.Telemetry.Counter on the fast path"
}

//eisr:fastpath
func (m *meter) export() int {
	return len(m.reg.Snapshot()) // want "calls telemetry.Telemetry.Snapshot on the fast path"
}

// batchAppend exercises the vector-forwarding append rule: append may
// grow its backing array, so the fast path only admits it over
// preallocated scratch declared with an allow.
//
//eisr:fastpath
func (p *pipeline) batchAppend(scratch []int, n int) []int {
	scratch = append(scratch, n) // want "batchAppend: append may grow and allocate on the fast path"
	//eisr:allow(fastpath) preallocated scratch, caller bounds the batch to its cap
	scratch = append(scratch, n)
	return scratch
}
