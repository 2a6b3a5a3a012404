package telemetry

// PerWorker is a fixed array of cache-line-padded counters indexed by
// worker id — the telemetry primitive for the parallel forwarding
// engine. Where Counter spreads anonymous writers across shards by
// stack address, PerWorker gives each forwarding worker its own cell:
// the per-worker breakdown (packets forwarded, steering imbalance) is
// itself the quantity of interest, and an owned cell is both exact and
// contention-free. Record methods follow the package
// contract: no allocation, no locks, nil-receiver no-ops.
type PerWorker struct {
	cells []counterShard
}

// NewPerWorker builds a per-worker counter set for n workers.
func NewPerWorker(n int) *PerWorker {
	if n < 1 {
		n = 1
	}
	return &PerWorker{cells: make([]counterShard, n)}
}

// Add adds n to worker i's cell.
//
//eisr:fastpath
func (w *PerWorker) Add(i int, n uint64) {
	if w == nil || i < 0 || i >= len(w.cells) {
		return
	}
	w.cells[i].v.Add(n)
}

// Value reads worker i's cell.
func (w *PerWorker) Value(i int) uint64 {
	if w == nil || i < 0 || i >= len(w.cells) {
		return 0
	}
	return w.cells[i].v.Load()
}

// Total sums every worker's cell.
func (w *PerWorker) Total() uint64 {
	if w == nil {
		return 0
	}
	var sum uint64
	for i := range w.cells {
		sum += w.cells[i].v.Load()
	}
	return sum
}

// Workers returns the number of cells.
func (w *PerWorker) Workers() int {
	if w == nil {
		return 0
	}
	return len(w.cells)
}
