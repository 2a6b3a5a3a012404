package aiu

import "github.com/routerplugins/eisr/internal/telemetry"

// SetTelemetry attaches metric cells to the AIU and its flow table. Must
// be called during router assembly, before data-path traffic starts: the
// cell pointers are read lock-free on the per-packet path. With a nil
// registry every cell stays nil and every record call is a no-op.
//
// The families map onto the paper's vocabulary: eisr_classifier_* counts
// the Table 2 quantities (memory accesses per filter lookup) on the
// first-packet slow path, eisr_flowcache_* accounts the §5.2 flow table
// (hits are the cached lookups whose cost Table 3 measures), and
// eisr_filters/eisr_dag_nodes size each gate's filter table and its
// set-pruning DAG.
func (a *AIU) SetTelemetry(t *telemetry.Telemetry) {
	t.CounterFunc("eisr_classifier_first_packet_total",
		"first-packet classifications (full filter-table lookup at every gate)", a.firstPacketLookups.Load)
	a.telAccesses = t.Counter("eisr_classifier_accesses_total",
		"classifier memory accesses on first-packet lookups (Table 2 units)")
	a.telFnPtr = t.Counter("eisr_classifier_fnptr_loads_total",
		"function-pointer loads during classification (Table 2 accounts them separately)")
	a.telDepth = t.Histogram("eisr_classifier_accesses_per_lookup",
		"memory accesses per first-packet classification")
	for _, ft := range a.tables {
		l := telemetry.Label{Key: "gate", Value: ft.gate.String()}
		ft.telFilters = t.Gauge("eisr_filters",
			"installed filter records per gate", l)
		ft.telDAGNodes = t.Gauge("eisr_dag_nodes",
			"nodes in the gate's classification DAG", l)
	}
	a.flows.SetTelemetry(t)
}

// SetTelemetry attaches flow-table metric cells. Same wiring contract as
// AIU.SetTelemetry: assembly time only. The lookup, insert and eviction
// counts and the live gauge are views over the table's own Stats cells.
func (t *FlowTable) SetTelemetry(reg *telemetry.Telemetry) {
	result := func(r string) telemetry.Label { return telemetry.Label{Key: "result", Value: r} }
	reg.CounterFunc("eisr_flowcache_total", "flow-cache lookups by result",
		func() uint64 { return t.Stats().Hits }, result("hit"))
	reg.CounterFunc("eisr_flowcache_total", "flow-cache lookups by result",
		func() uint64 { return t.Stats().Misses }, result("miss"))
	reg.CounterFunc("eisr_flowcache_inserts_total", "flow records installed",
		func() uint64 { return t.Stats().Inserts })
	reg.CounterFunc("eisr_flowcache_evictions_total", "flow records evicted (recycled, purged, or flushed)",
		func() uint64 { s := t.Stats(); return s.Recycled + s.Removed })
	reg.GaugeFunc("eisr_flowcache_live", "live flow records",
		func() int64 { return int64(t.Len()) })
	t.telKeys = reg.Histogram("eisr_flowcache_chain_length",
		"keys compared per lookup (at most a bucket's slots)")
}
