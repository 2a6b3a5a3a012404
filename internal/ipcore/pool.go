// The parallel forwarding engine's worker pool.
//
// The paper's kernel has a single flow of control: every packet walks
// the gates inline, so flow-table access, FIX dereferences, and plugin
// instance lifetime are trivially race-free. To scale the same
// architecture across cores without giving that up, the pool steers
// every ingress packet to a worker chosen from its flow hash — the top
// byte that also selects the flow-table shard. Two consequences fall
// out of that one decision:
//
//   - Per-flow ordering is preserved: all packets of a flow land in the
//     same worker's queue and are forwarded in arrival order.
//   - On the cache-hit path there is zero cross-worker locking: a
//     worker only touches flow-table shards that its steering byte maps
//     to, so (with a power-of-two worker count) each shard is read and
//     written by exactly one worker.
//
// Instance lifetime is covered by epoch reclamation (pcu.Reclaimer):
// workers announce quiescent points between packets and park offline,
// and free-instance destruction is deferred until every worker that
// might hold an instance pointer has passed one.
package ipcore

import (
	"sync"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// poolQueueLen is the per-worker ingress queue depth. Deep enough that
// a briefly busy worker does not stall the submitter, small enough to
// bound latency under overload (a full queue drops at Submit, which is
// what a real ingress ring does when the poller outruns a core).
const poolQueueLen = 1024

// Pool fans forwarding out to n workers, steering by flow hash.
type Pool struct {
	r      *Router
	n      int
	batch  int
	queues []chan *pkt.Packet
	eps    []*pcu.WorkerEpoch
	rec    *pcu.Reclaimer
	wg     sync.WaitGroup
	// fwd counts packets forwarded per worker — the steering-balance
	// telemetry of the parallel engine. drops counts packets Submit
	// discarded because the owning worker's queue was full.
	fwd   *telemetry.PerWorker
	drops *telemetry.PerWorker

	mu      sync.Mutex
	started bool
}

// NewPool builds a pool of n workers (minimum 2) for the router. rec is
// the epoch reclaimer the workers announce quiescence to; nil creates a
// private one (instance destruction then still waits out this pool's
// in-flight dispatches, but the PCU must be handed the same reclaimer —
// see Reclaimer — for the deferral to cover free-instance). batch caps
// the per-worker forwarding vector (0 = DefaultBatchSize).
func NewPool(r *Router, n int, rec *pcu.Reclaimer, batch int) *Pool {
	if n < 2 {
		n = 2
	}
	if rec == nil {
		rec = pcu.NewReclaimer()
	}
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	p := &Pool{
		r:      r,
		n:      n,
		batch:  batch,
		queues: make([]chan *pkt.Packet, n),
		eps:    make([]*pcu.WorkerEpoch, n),
		rec:    rec,
		fwd:    telemetry.NewPerWorker(n),
		drops:  telemetry.NewPerWorker(n),
	}
	for i := range p.queues {
		p.queues[i] = make(chan *pkt.Packet, poolQueueLen)
		p.eps[i] = rec.Register()
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.n }

// Reclaimer returns the epoch reclaimer the workers report to.
func (p *Pool) Reclaimer() *pcu.Reclaimer { return p.rec }

// Forwarded returns worker i's forwarded-packet count.
func (p *Pool) Forwarded(i int) uint64 { return p.fwd.Value(i) }

// Drops returns how many packets Submit discarded for worker i because
// its queue was full.
func (p *Pool) Drops(i int) uint64 { return p.drops.Value(i) }

// DropTotal returns the pool-wide Submit overload drop count (0 for a
// nil pool: a router without workers sheds nothing at Submit).
func (p *Pool) DropTotal() uint64 {
	if p == nil {
		return 0
	}
	return p.drops.Total()
}

// Start launches the workers. Idempotent.
func (p *Pool) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return
	}
	p.started = true
	for i := 0; i < p.n; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
}

// Stop closes the ingress queues and waits for the workers to finish
// every packet already submitted, then runs a final reclamation pass.
// Submit must not be called after (or concurrently with) Stop.
func (p *Pool) Stop() {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return
	}
	p.started = false
	p.mu.Unlock()
	for _, q := range p.queues {
		close(q)
	}
	p.wg.Wait()
	p.rec.Collect()
	// Reopen fresh queues so a stopped pool can be started again (tests
	// cycle pools; the daemon stops once).
	for i := range p.queues {
		p.queues[i] = make(chan *pkt.Packet, poolQueueLen)
	}
}

// Submit hands a packet to the worker owning its flow. All packets of a
// five-tuple flow map to the same worker, so per-flow order is the
// submission order. Never blocks: when the owning worker's queue is
// full the packet is dropped and counted (eisr_pool_drop_full, plus the
// per-worker Drops cell) and Submit returns false. A blocking Submit
// would head-of-line-stall the shared RX drain — one saturated worker
// would stop *every* flow on *every* interface — so overload sheds on
// the overloaded flow's queue only, the same never-block policy as the
// netio TX ring.
//
//eisr:fastpath
func (p *Pool) Submit(pk *pkt.Packet) bool {
	w := aiu.SteerWorker(pk.Hash, p.n)
	select {
	case p.queues[w] <- pk:
		return true
	default:
		p.drops.Inc(w)
		return false
	}
}

// worker is one forwarding goroutine: park offline on the queue, go
// online, drain up to the batch cap without blocking, forward the whole
// vector through the Batcher, announce a quiescent point between
// batches, and park again when the queue runs dry.
func (p *Pool) worker(i int) {
	defer p.wg.Done()
	q := p.queues[i]
	ep := p.eps[i]
	b := p.r.NewBatcher(p.batch)
	batch := make([]*pkt.Packet, 0, p.batch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		b.ForwardBatch(batch)
		p.fwd.Add(i, uint64(len(batch)))
		batch = batch[:0]
		ep.Quiesce()
	}
	for pk := range q {
		ep.Online()
		batch = append(batch, pk)
		for {
			closed := false
		fill:
			for len(batch) < cap(batch) {
				select {
				case np, more := <-q:
					if !more {
						closed = true
						break fill
					}
					batch = append(batch, np)
				default:
					break fill
				}
			}
			flush()
			if closed {
				ep.Offline()
				return
			}
			select {
			case np, more := <-q:
				if !more {
					ep.Offline()
					return
				}
				batch = append(batch, np)
			default:
			}
			if len(batch) == 0 {
				break // queue dry: park offline on the range receive
			}
		}
		ep.Offline()
	}
}
