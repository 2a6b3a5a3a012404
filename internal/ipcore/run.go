// The run loop: one forwarding loop per worker, polled to completion.
//
// The paper's kernel has a single flow of control: every packet walks
// the gates inline, so flow-table access, FIX dereferences, and plugin
// instance lifetime are trivially race-free. To scale the same
// architecture across cores without giving that up, each interface has
// one RX ring per worker, like a NIC's RSS queues, and Receive steers
// every packet to the ring of the worker chosen from its flow hash — the
// top byte that also selects the flow-table shard (pkt.SteerWorker).
// Worker q polls ring q of every interface into its vector, forwards it
// and drains the output ports, with no goroutine handoff on the way.
// Two consequences fall out of that one decision:
//
//   - Per-flow ordering is preserved: all packets of a flow land on the
//     same worker's ring and are forwarded in arrival order, and a
//     port is drained by one worker at a time (port.draining), so they
//     leave in that order too.
//   - On the cache-hit path there is zero cross-worker locking: a
//     worker only touches flow-table shards that its steering byte maps
//     to, so (with a power-of-two worker count) each shard is read and
//     written by exactly one worker.
//
// A worker that cannot keep up fills only its own ring, where Receive
// counts the packets it refuses as ring-full drops, while every other
// flow keeps moving.
//
// Instance lifetime is covered by epoch reclamation (pcu.Reclaimer):
// a worker is online for a pass, announces a quiescent point between
// vectors and is offline between passes, and free-instance destruction
// is deferred until every worker that might hold an instance pointer
// has passed one.
package ipcore

import (
	"sync"
	"time"

	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// txBudget caps the packets one pass transmits from each output port.
const txBudget = 64

// worker is one forwarding loop's state. A worker belongs to one
// goroutine at a time.
type worker struct {
	r    *Router
	ring int // the RX ring it polls on every interface; -1 polls them all
	b    *Batcher
	vec  []*pkt.Packet
	ep   *pcu.WorkerEpoch
}

func (r *Router) newWorker(ring int) *worker {
	b := r.NewBatcher(r.cfg.BatchSize)
	return &worker{r: r, ring: ring, b: b, vec: make([]*pkt.Packet, len(b.lanes)), ep: r.rec.Register()}
}

// retire takes the worker's epoch cell off the reclaimer once the
// worker is done forwarding.
func (w *worker) retire() { w.r.rec.Unregister(w.ep) }

// pass is one turn of the run loop: poll up to a vector from the
// worker's ring on every interface and forward it, then transmit from
// every output port no other worker is draining, then run the
// destructions whose grace period has passed. It returns how many
// packets it moved, polled or transmitted.
func (w *worker) pass() int {
	r := w.r
	st := r.state.Load()
	moved := 0
	w.ep.Online()
	for _, ifc := range st.list {
		n := 0
		for n < len(w.vec) {
			if w.ring < 0 {
				w.vec[n] = ifc.Poll()
			} else {
				w.vec[n] = ifc.PollRing(w.ring)
			}
			if w.vec[n] == nil {
				break
			}
			n++
		}
		if n > 0 {
			w.b.ForwardBatch(w.vec[:n])
			clear(w.vec[:n])
			w.ep.Quiesce()
			moved += n
		}
	}
	for _, ifc := range st.list {
		pt := st.ports[ifc.Index]
		if pt.draining.CompareAndSwap(false, true) {
			moved += r.TxDrain(ifc.Index, txBudget)
			pt.draining.Store(false)
		}
	}
	w.ep.Offline()
	if w.ring <= 0 {
		r.rec.Collect()
	}
	return moved
}

// loop runs passes until done closes, sleeping briefly after a pass
// that moved nothing rather than spinning hot.
func (w *worker) loop(done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
		if w.pass() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// Step runs one pass of the run loop over every RX ring of every
// interface: it forwards up to a vector from each interface, drains
// the outputs, and returns how many packets it moved. Simulations drive
// a router with it in place of Run. Step takes the worker the previous
// Step left and leaves it for the next, so a pass allocates nothing; a
// Step that finds none (the first, or one concurrent with another)
// makes one, and retires it if another was left meanwhile. No lock is
// held while the pass runs plugins.
func (r *Router) Step() int {
	//eisr:allow(snapdiscipline) a hand-off slot, not a snapshot: Swap takes the worker, nothing is copied and republished
	w := r.stepW.Swap(nil)
	if w == nil {
		w = r.newWorker(-1)
	}
	n := w.pass()
	//eisr:allow(snapdiscipline) returns the worker to the hand-off slot only if it is empty; a lost race retires it
	if !r.stepW.CompareAndSwap(nil, w) {
		w.retire()
	}
	return n
}

// Run forwards until done closes: max(1, Config.Workers) workers, worker
// q polling RX ring q of every interface, the first on the calling
// goroutine. It returns once every worker has exited and a final
// reclamation pass has run.
func (r *Router) Run(done <-chan struct{}) {
	ws := make([]*worker, r.queues())
	for q := range ws {
		ws[q] = r.newWorker(q)
	}
	var wg sync.WaitGroup
	for _, w := range ws[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(done)
		}()
	}
	ws[0].loop(done)
	wg.Wait()
	for _, w := range ws {
		w.retire()
	}
	r.rec.Collect()
}
