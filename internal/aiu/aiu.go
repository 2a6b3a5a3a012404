package aiu

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// Config tunes the AIU.
type Config struct {
	// BMPKind selects the longest-prefix-match plugin used at the DAG's
	// address levels. The paper ships PATRICIA and binary search on
	// prefix lengths; the default is BSPL, the fast one.
	BMPKind bmp.Kind
	// CollapseNodes enables the paper's §5.1.2 node-collapsing
	// optimization (all-wildcard levels are skipped). It is off by
	// default so access counts match Table 2's six-edge accounting.
	CollapseNodes bool
	// InitialFlows and MaxFlows size the flow table; its bucket index
	// grows with the records.
	InitialFlows int
	MaxFlows     int
	// FlowShards is the flow-table shard count (rounded up to a power
	// of two; 0 = DefaultFlowShards). Each shard has its own lock,
	// index, slab, and recycle queue; the shard is picked from the top
	// byte of the flow hash, the same byte the ipcore worker pool steers
	// by, so a power-of-two worker count gives every shard a single
	// owning worker.
	FlowShards int
	// ShareIdenticalTables enables the §5.1.2 inter-DAG optimization:
	// "often, the same or similar filters are installed in two or more
	// filter tables. It is possible to exploit the information gleaned
	// from a lookup in one filter table to speed up the lookup for the
	// same packet in the next." When two gates' filter tables hold the
	// same filter specifications, the uncached path classifies once and
	// maps the result into the later gate's records instead of walking
	// its DAG again. Off by default so the gate-scaling experiment
	// reflects the unoptimized per-gate cost.
	ShareIdenticalTables bool
}

func (c Config) withDefaults() Config {
	if c.BMPKind == "" {
		c.BMPKind = bmp.KindBSPL
	}
	if c.InitialFlows == 0 {
		c.InitialFlows = DefaultInitialFlows
	}
	if c.MaxFlows == 0 {
		c.MaxFlows = DefaultMaxFlows
	}
	if c.FlowShards == 0 {
		c.FlowShards = DefaultFlowShards
	}
	return c
}

// FilterTable is one gate's filter table: the installed filter records
// and the DAG built over them. The DAG is rebuilt lazily after control-
// path mutations.
type FilterTable struct {
	gate    pcu.Type
	records []*FilterRecord
	dag     *dag
	dirty   bool
	// buildErr is the last rebuild failure. While set (and not dirty)
	// lookups at this gate return no match instead of retrying the
	// failed build per packet; the next control-path mutation re-dirties
	// the table and retries.
	buildErr error

	// sig fingerprints the multiset of filter specs; tables with equal
	// sig hold the same filters and can share classification results
	// (inter-DAG optimization). bySpecIdx lists records by spec rank so
	// a twin table's result maps here with one indexed load.
	sig       uint64
	bySpecIdx []*FilterRecord

	// Registry-owned gauges (SetTelemetry): installed filters and DAG
	// nodes. Nil when telemetry is off.
	telFilters  *telemetry.Gauge
	telDAGNodes *telemetry.Gauge
}

// Records lists the installed records in installation order.
func (ft *FilterTable) Records() []*FilterRecord {
	return append([]*FilterRecord(nil), ft.records...)
}

// AIU is the Association Identification Unit: per-gate filter tables, the
// flow table, and the binding between flows and plugin instances. Control
// path methods (Bind, Unbind, ...) take the write lock; the data path
// (Resolve) runs under the read lock plus the flow table's own mutex.
type AIU struct {
	cfg Config

	mu     sync.RWMutex
	gates  []pcu.Type     // gate order; slot i in flow records = gates[i]
	tables []*FilterTable // tables[i] is gates[i]'s
	flows  *FlowTable
	nextID uint64
	seq    uint64

	// kindErr caches a bad BMPKind detected at construction so Bind can
	// fail the control request up front instead of poisoning the next
	// DAG rebuild.
	kindErr error

	// guard is the plugin fault barrier wrapped around classifier match
	// walks (SetGuard, assembly time; nil-safe).
	guard *pcu.Guard

	// firstPacketLookups counts filter-table lookups taken on the
	// uncached path; cachedLookups counts flow-cache hits.
	firstPacketLookups atomic.Uint64
	cachedLookups      atomic.Uint64

	// Registry-owned telemetry cells (SetTelemetry): the quantities
	// with no Stats twin. Nil when telemetry is off; every record method
	// on a nil cell is a no-op.
	telAccesses *telemetry.Counter
	telFnPtr    *telemetry.Counter
	telDepth    *telemetry.Histogram
}

// New builds an AIU serving the given gates, in gate order. The gate
// order determines both the flow-record slot layout and the order in
// which the uncached path performs its per-gate filter lookups.
func New(cfg Config, gates ...pcu.Type) *AIU {
	cfg = cfg.withDefaults()
	a := &AIU{
		cfg:    cfg,
		gates:  append([]pcu.Type(nil), gates...),
		tables: make([]*FilterTable, len(gates)),
	}
	for i, g := range gates {
		a.tables[i] = &FilterTable{gate: g}
	}
	a.flows = NewFlowTableSharded(cfg.InitialFlows, cfg.MaxFlows, len(gates), cfg.FlowShards)
	// Probe the BMP kind once: a bad kind would otherwise surface only
	// deep inside the first DAG rebuild.
	if _, err := bmp.New(cfg.BMPKind); err != nil {
		a.kindErr = fmt.Errorf("aiu: %w", err)
	}
	return a
}

// SetGuard attaches the plugin fault barrier to the classifier: a
// panicking match function is then contained and the lookup reports no
// match instead of killing the router. Call once at assembly time.
func (a *AIU) SetGuard(g *pcu.Guard) { a.guard = g }

// Gates returns the gate order.
func (a *AIU) Gates() []pcu.Type { return append([]pcu.Type(nil), a.gates...) }

// Slot returns the flow-record slot index of a gate: its position in
// the gate order. A router has a handful of gates, so a scan beats a
// map.
//
//eisr:fastpath
func (a *AIU) Slot(g pcu.Type) (int, bool) {
	for i, t := range a.gates {
		if t == g {
			return i, true
		}
	}
	return 0, false
}

// table returns a gate's filter table, nil when the AIU does not serve
// the gate.
func (a *AIU) table(g pcu.Type) *FilterTable {
	if i, ok := a.Slot(g); ok {
		return a.tables[i]
	}
	return nil
}

// FlowTable exposes the flow cache (benchmarks, purge timers).
func (a *AIU) FlowTable() *FlowTable { return a.flows }

// Bind installs a filter in a gate's filter table and binds it to a
// plugin instance (the AIU registration function the PCU's
// register-instance message ultimately calls). private is the optional
// filter-associated plugin state. It returns the installed record.
func (a *AIU) Bind(gate pcu.Type, f Filter, inst pcu.Instance, private any) (*FilterRecord, error) {
	if a.kindErr != nil {
		// Fail the control request before mutating the table: the rebuild
		// this bind would trigger cannot succeed.
		return nil, a.kindErr
	}
	ft := a.table(gate)
	if ft == nil {
		return nil, fmt.Errorf("aiu: no gate %s", gate)
	}
	a.mu.Lock()
	a.nextID++
	a.seq++
	rec := &FilterRecord{
		ID: a.nextID, Gate: gate, Filter: f, Instance: inst,
		Private: private, seq: a.seq,
	}
	ft.records = append(ft.records, rec)
	ft.dirty = true
	ft.telFilters.Set(int64(len(ft.records)))
	a.mu.Unlock()
	// Flows cached before this filter existed may now be misclassified;
	// flush the ones the new filter matches so they reclassify. The
	// flush takes each shard lock in turn, after the AIU lock is dropped.
	// A lookup racing the flush may briefly see the pre-filter binding;
	// that is the flow cache's soft-state semantics (§3.2).
	a.flows.FlushWhere(func(r *FlowRecord) bool { return f.Matches(r.Key) })
	return rec, nil
}

// Unbind removes a filter record from its gate's table (the
// deregister-instance path).
func (a *AIU) Unbind(rec *FilterRecord) error {
	slot, ok := a.Slot(rec.Gate)
	if !ok {
		return fmt.Errorf("aiu: no gate %s", rec.Gate)
	}
	ft := a.tables[slot]
	a.mu.Lock()
	found := false
	for i, r := range ft.records {
		if r == rec {
			ft.records = append(ft.records[:i], ft.records[i+1:]...)
			ft.dirty = true
			found = true
			break
		}
	}
	ft.telFilters.Set(int64(len(ft.records)))
	a.mu.Unlock()
	if !found {
		return fmt.Errorf("aiu: record %d not installed", rec.ID)
	}
	// Notify and flush outside the AIU lock: both run plugin code.
	if l, ok := rec.Instance.(FilterRemoveListener); ok {
		l.FilterRemoved(rec)
	}
	a.flows.FlushWhere(func(fr *FlowRecord) bool {
		return fr.Filter(slot) == rec
	})
	return nil
}

// UnbindInstance removes every filter bound to an instance across all
// gates and flushes its cached flows — the free-instance semantics: "a
// freed instance can no longer be used by the kernel and all references
// to it are removed from the flow table and the filter table".
func (a *AIU) UnbindInstance(inst pcu.Instance) int {
	a.mu.Lock()
	var removed []*FilterRecord
	for _, ft := range a.tables {
		kept := ft.records[:0]
		for _, r := range ft.records {
			if r.Instance == inst {
				removed = append(removed, r)
				ft.dirty = true
				continue
			}
			kept = append(kept, r)
		}
		ft.records = kept
		ft.telFilters.Set(int64(len(ft.records)))
	}
	a.mu.Unlock()
	// Listener callbacks and the cache flush run plugin code; deliver
	// them only after the AIU lock is dropped.
	if l, ok := inst.(FilterRemoveListener); ok {
		for _, r := range removed {
			l.FilterRemoved(r)
		}
	}
	a.flows.FlushWhere(func(fr *FlowRecord) bool {
		for i := 0; i < fr.Slots(); i++ {
			if fr.Filter(i).instance() == inst {
				return true
			}
		}
		return false
	})
	return len(removed)
}

// FilterRemoveListener is implemented by instances that keep hard state
// on filter records and must release it when the filter is removed.
type FilterRemoveListener interface {
	FilterRemoved(rec *FilterRecord)
}

// FindRecord locates an installed record by gate, exact filter spec, and
// bound instance — the deregister-instance path, where the caller names
// the binding by its filter rather than holding the record.
func (a *AIU) FindRecord(gate pcu.Type, f Filter, inst pcu.Instance) *FilterRecord {
	ft := a.table(gate)
	if ft == nil {
		return nil
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, r := range ft.records {
		if r.Filter == f && r.Instance == inst {
			return r
		}
	}
	return nil
}

// Table returns a gate's filter table.
func (a *AIU) Table(gate pcu.Type) (*FilterTable, bool) {
	ft := a.table(gate)
	return ft, ft != nil
}

// dagFor returns the table's DAG, rebuilding it if dirty. Caller must
// hold at least the read lock; rebuilds upgrade briefly. A failed
// rebuild is remembered in the table (buildErr) so lookups do not
// retry the broken build per packet; the next control-path mutation
// re-dirties the table and retries.
func (a *AIU) dagFor(ft *FilterTable) (*dag, error) {
	if ft.dirty || (ft.dag == nil && ft.buildErr == nil) {
		// Upgrade to the write lock for the rebuild.
		a.mu.RUnlock()
		a.mu.Lock()
		if ft.dirty || (ft.dag == nil && ft.buildErr == nil) {
			d, err := buildDAG(ft.records, dagConfig{bmpKind: a.cfg.BMPKind, collapse: a.cfg.CollapseNodes})
			ft.dag, ft.buildErr = d, err
			if err == nil && a.cfg.ShareIdenticalTables {
				ft.sig = specSignature(ft.records)
				// Rank records by rendered spec; twin tables (equal
				// multisets) produce aligned ranks, so a record in one
				// maps to the other by index.
				ft.bySpecIdx = append([]*FilterRecord(nil), ft.records...)
				sort.Slice(ft.bySpecIdx, func(i, j int) bool {
					si, sj := ft.bySpecIdx[i].Filter.String(), ft.bySpecIdx[j].Filter.String()
					if si != sj {
						return si < sj
					}
					return ft.bySpecIdx[i].seq < ft.bySpecIdx[j].seq
				})
				for i, r := range ft.bySpecIdx {
					r.specIdx = i
				}
			}
			ft.dirty = false
			if ft.dag != nil {
				ft.telDAGNodes.Set(int64(ft.dag.nodes))
			}
		}
		a.mu.Unlock()
		a.mu.RLock()
	}
	return ft.dag, ft.buildErr
}

// lookupGuarded walks one gate's DAG inside the fault barrier. The
// match functions at address levels are plugin code (the paper's BMP
// plugins); a panic there is captured — not delivered — because the
// caller holds a.mu and the health hooks can re-enter it. Captured
// faults go into *faults for delivery after the lock is dropped.
func (a *AIU) lookupGuarded(d *dag, gate pcu.Type, k pkt.Key, c *cycles.Counter, faults *[]*pcu.PluginFault) *FilterRecord {
	var rec *FilterRecord
	if flt := a.guard.Capture(pcu.OriginClassifier, gate, nil, func() {
		rec = d.lookup(k, c)
	}); flt != nil {
		*faults = append(*faults, flt)
		return nil
	}
	return rec
}

// ClassifyKey performs a raw filter-table lookup at one gate — the slow
// path the paper's Table 2 instruments. It does not consult or fill the
// flow cache.
func (a *AIU) ClassifyKey(gate pcu.Type, k pkt.Key, c *cycles.Counter) *FilterRecord {
	ft := a.table(gate)
	if ft == nil {
		return nil
	}
	var faults []*pcu.PluginFault
	a.mu.RLock()
	d, err := a.dagFor(ft)
	var rec *FilterRecord
	if err == nil && d != nil {
		rec = a.lookupGuarded(d, gate, k, c, &faults)
	}
	a.mu.RUnlock()
	for _, flt := range faults {
		a.guard.Deliver(flt, nil)
	}
	return rec
}

// classifyAndInsert is the first-packet slow path: classify at every gate
// ("the processing of the first packet of a new flow with n gates
// involves n filter table lookups to create a single entry in the flow
// table"), then install the record in one atomic step. With inter-DAG
// sharing on, gates whose filter tables are identical to an earlier
// gate's reuse its result with a single map access instead of another
// DAG walk.
//
//eisr:slowpath
func (a *AIU) classifyAndInsert(p *pkt.Packet, slot int, now time.Time, c *cycles.Counter) (pcu.Instance, *FlowRecord) {
	// The classification charges the caller's counter and reads its own
	// share (for the first-packet telemetry, and the packet trace via
	// p.CacheMiss) as the difference: a counter of its own would escape
	// to the heap through the BMP plugins' interface calls. Only when
	// the caller counts nothing but telemetry wants the figures is one
	// allocated.
	lc, before := c, cycles.Counter{}
	if c != nil {
		before = *c
	} else if a.telAccesses != nil {
		lc = new(cycles.Counter)
	}
	var faults []*pcu.PluginFault
	// One filter per gate, on the stack for any gate set up to the
	// buffer's size: the flow table copies them into the record.
	var buf [firstPacketGates]*FilterRecord
	filters := buf[:0]
	if len(a.gates) > len(buf) {
		filters = make([]*FilterRecord, 0, len(a.gates))
	}
	filters = filters[:len(a.gates)]
	a.mu.RLock()
	var shared map[uint64]*FilterRecord
	for i, ft := range a.tables {
		d, err := a.dagFor(ft)
		if err != nil || d == nil {
			// A gate whose table failed to build classifies to no match:
			// the flow degrades to the default path at that gate.
			continue
		}
		if a.cfg.ShareIdenticalTables {
			if prev, ok := shared[ft.sig]; ok {
				lc.Access(1) // the inter-DAG pointer dereference
				var fr *FilterRecord
				if prev != nil && prev.specIdx < len(ft.bySpecIdx) {
					fr = ft.bySpecIdx[prev.specIdx]
				}
				filters[i] = fr
				continue
			}
		}
		fr := a.lookupGuarded(d, ft.gate, p.Key, lc, &faults)
		filters[i] = fr
		if a.cfg.ShareIdenticalTables {
			if shared == nil {
				shared = make(map[uint64]*FilterRecord, len(a.gates))
			}
			shared[ft.sig] = fr
		}
	}
	a.mu.RUnlock()
	// Deliver classifier faults only now: the health hooks may unbind
	// filters, which takes the write lock this goroutine just held.
	for _, flt := range faults {
		a.guard.Deliver(flt, nil)
	}
	rec, gen := a.flows.insert(p.Key, p.Hash, now, filters)
	a.firstPacketLookups.Add(1)
	if lc != nil {
		mem, fn := lc.Mem-before.Mem, lc.FnPtr-before.FnPtr
		a.telAccesses.Add(mem)
		a.telFnPtr.Add(fn)
		a.telDepth.Observe(mem + fn)
	}
	p.FIX, p.FIXGen = rec, gen
	p.CacheMiss = true
	// The instance comes from the record — a key another packet inserted
	// first keeps that packet's binds — unless a concurrent eviction has
	// already moved the record on; then from this classification.
	if fr, ok := rec.FilterIfCurrent(slot, gen); ok {
		return fr.instance(), rec
	}
	return filters[slot].instance(), rec
}

// firstPacketGates is the gate count whose first-packet filters fit on
// classifyAndInsert's stack: the paper's gate set and then some.
const firstPacketGates = 8

// specSignature fingerprints the multiset of filter specs in a table
// (order independent): an order-insensitive FNV combination over the
// rendered specs.
func specSignature(records []*FilterRecord) uint64 {
	var sum, xor uint64
	for _, r := range records {
		h := uint64(14695981039346656037)
		for _, b := range []byte(r.Filter.String()) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		sum += h
		xor ^= h
	}
	return sum ^ (xor << 1) ^ uint64(len(records))
}

// Stats reports classifier path counters: cache-hit and first-packet
// classifications.
func (a *AIU) Stats() (cached, firstPacket uint64) {
	return a.cachedLookups.Load(), a.firstPacketLookups.Load()
}

// DAGNodes reports the node count of a gate's DAG (memory accounting for
// the set-pruning structure).
func (a *AIU) DAGNodes(gate pcu.Type) int {
	ft := a.table(gate)
	if ft == nil {
		return 0
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	d, _ := a.dagFor(ft)
	if d == nil {
		return 0
	}
	return d.nodes
}
