package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/routerplugins/eisr/internal/pkt"
)

// Label is one metric dimension ("gate"="sched", "plugin"="drr").
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Kind discriminates metric types in snapshots and export.
type Kind uint8

// The metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// metric is one registered metric: a family name, its label set, and
// exactly one live cell. A counter is exported through read: the
// registry's own cell's Value, or a view over a cell its layer owns
// (CounterFunc).
type metric struct {
	family string
	labels []Label
	full   string // family{k="v",...}
	help   string
	kind   Kind

	c     *Counter
	read  func() uint64
	g     *Gauge
	gread func() int64
	h     *Histogram
}

// Telemetry is the metric registry plus the optional trace ring. All
// registration happens on the control path under a mutex; data-path
// code holds direct pointers to the registered cells and never touches
// the registry. A nil *Telemetry is the disabled mode: constructors
// return nil cells whose record methods are no-ops.
type Telemetry struct {
	mu     sync.Mutex
	order  []*metric
	byFull map[string]*metric

	trace   atomic.Pointer[TraceRing]
	path    atomic.Pointer[PathTracer]
	journal atomic.Pointer[Journal]
}

// New builds an empty registry.
func New() *Telemetry {
	return &Telemetry{byFull: make(map[string]*metric)}
}

// renderFull renders the canonical full name: family{k="v",...} with
// labels in the given order (callers use a stable order per family).
func renderFull(family string, labels []Label) string {
	if len(labels) == 0 {
		return family
	}
	var sb strings.Builder
	sb.WriteString(family)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(l.Value)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// noMetric is what register resolves to without a registry or on a
// kind clash (the name is already taken by a different metric type):
// its cells are nil, so that call site degrades to a no-op rather than
// corrupting the export. Never written.
var noMetric metric

// register resolves or creates the metric for full name. A new counter
// reads read and a new gauge gread, or a fresh registry cell when that
// reader is nil; the first registration of a full name wins.
func (t *Telemetry) register(family, help string, kind Kind, labels []Label, read func() uint64, gread func() int64) *metric {
	if t == nil {
		return &noMetric
	}
	full := renderFull(family, labels)
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.byFull[full]; ok {
		if m.kind != kind {
			return &noMetric
		}
		return m
	}
	m := &metric{
		family: family, labels: append([]Label(nil), labels...),
		full: full, help: help, kind: kind,
	}
	switch kind {
	case KindCounter:
		if read == nil {
			m.c = &Counter{}
			read = m.c.Value
		}
		m.read = read
	case KindGauge:
		if gread == nil {
			m.g = &Gauge{}
			gread = m.g.Value
		}
		m.gread = gread
	case KindHistogram:
		m.h = &Histogram{}
	}
	t.order = append(t.order, m)
	t.byFull[full] = m
	return m
}

// Counter registers (or finds) a counter. Nil-safe: a nil receiver
// returns a nil *Counter, whose methods are no-ops.
func (t *Telemetry) Counter(family, help string, labels ...Label) *Counter {
	return t.register(family, help, KindCounter, labels, nil, nil).c
}

// CounterFunc registers a counter whose cell belongs to the caller:
// Snapshot and /metrics call read at scrape time. A layer that already
// counts an event for its own Stats exports that one cell this way
// instead of recording the event twice, so the registry also sees
// everything counted before it was attached. Nil-safe; a full name
// already registered keeps its first reader.
func (t *Telemetry) CounterFunc(family, help string, read func() uint64, labels ...Label) {
	t.register(family, help, KindCounter, labels, read, nil)
}

// Drops registers a layer's drop cells in the one drop family,
// eisr_drops_total{layer,<labels>,reason}: one series per reason the
// layer produces, read from the layer's own cell at scrape time, so a
// lost packet is counted once, by the layer that lost it. labels (iface,
// dir, instance) sit between layer and reason. Nil-safe.
func (t *Telemetry) Drops(layer string, read func(pkt.DropReason) uint64, labels []Label, reasons ...pkt.DropReason) {
	if t == nil {
		return
	}
	for _, why := range reasons {
		ls := append(append([]Label{{"layer", layer}}, labels...), Label{"reason", why.String()})
		t.CounterFunc("eisr_drops_total", "packets lost, by the layer that lost them and why",
			func() uint64 { return read(why) }, ls...)
	}
}

// Gauge registers (or finds) a gauge.
func (t *Telemetry) Gauge(family, help string, labels ...Label) *Gauge {
	return t.register(family, help, KindGauge, labels, nil, nil).g
}

// GaugeFunc registers a gauge whose value belongs to the caller, read
// at scrape time — CounterFunc's twin for a level a layer already keeps
// (a table's live count) rather than moving a second cell beside it.
// Nil-safe; a full name already registered keeps its first reader.
func (t *Telemetry) GaugeFunc(family, help string, read func() int64, labels ...Label) {
	t.register(family, help, KindGauge, labels, nil, read)
}

// Histogram registers (or finds) a histogram.
func (t *Telemetry) Histogram(family, help string, labels ...Label) *Histogram {
	return t.register(family, help, KindHistogram, labels, nil, nil).h
}

// EnableTrace installs a packet trace ring of the given size (rounded
// up to a power of two), sampling every sample-th packet (<=1 traces
// every packet). Safe to call before the data path starts; replacing a
// live ring is atomic and old entries are abandoned to the collector.
func (t *Telemetry) EnableTrace(size, sample int) {
	if t == nil {
		return
	}
	// Serialize against concurrent EnableTrace calls so two replacements
	// cannot interleave with registration reads; the data path loads the
	// pointer atomically and never stores it.
	t.mu.Lock()
	t.trace.Store(NewTraceRing(size, sample))
	t.mu.Unlock()
}

// Tracer returns the live trace ring, or nil when tracing is off (or
// the receiver is nil). The data path calls this per packet: one atomic
// load.
//
//eisr:fastpath
func (t *Telemetry) Tracer() *TraceRing {
	if t == nil {
		return nil
	}
	return t.trace.Load()
}

// SchedMetrics bundles the per-scheduler-instance cells so queueing
// disciplines carry a single nil-checkable pointer. Created on the
// control path when a scheduling instance is built; a nil *SchedMetrics
// no-ops every record method.
type SchedMetrics struct {
	enqueued *Counter
	dequeued *Counter
	// drops is the instance's drop cells: only DropEvicted is produced.
	// An enqueue rejection is the core's to count (its plugin cell).
	drops   [pkt.NumDropReasons]atomic.Uint64
	clamps  *Counter
	backlog *Gauge
	queues  *Gauge
	deficit *Histogram
}

// SchedMetrics registers the scheduler metric set for one instance.
func (t *Telemetry) SchedMetrics(plugin, instance string) *SchedMetrics {
	if t == nil {
		return nil
	}
	l := []Label{{"plugin", plugin}, {"instance", instance}}
	m := &SchedMetrics{
		enqueued: t.Counter("eisr_sched_enqueued_total", "packets admitted by the scheduling discipline", l...),
		dequeued: t.Counter("eisr_sched_dequeued_total", "packets handed to the link by the scheduling discipline", l...),
		clamps:   t.Counter("eisr_sched_horizon_clamps_total", "flow ranks clamped to the scheduling wheel horizon (Eiffel)", l...),
		backlog:  t.Gauge("eisr_sched_backlog", "packets queued across all flows of the instance", l...),
		queues:   t.Gauge("eisr_sched_queues", "per-flow queues the instance holds: flow slots claimed and not released", l...),
		deficit:  t.Histogram("eisr_sched_deficit_bytes", "DRR per-flow deficit observed at dequeue", l...),
	}
	t.Drops("sched", func(why pkt.DropReason) uint64 { return m.drops[why].Load() }, l, pkt.DropEvicted)
	return m
}

// RecordEnqueue counts an admitted packet.
//
//eisr:fastpath
func (m *SchedMetrics) RecordEnqueue() {
	if m == nil {
		return
	}
	m.enqueued.Inc()
	m.backlog.Inc()
}

// RecordDequeue counts a transmitted packet and observes the serving
// flow's remaining deficit (DRR's fairness state).
//
//eisr:fastpath
func (m *SchedMetrics) RecordDequeue(deficit int) {
	if m == nil {
		return
	}
	m.dequeued.Inc()
	m.backlog.Dec()
	if deficit >= 0 {
		m.deficit.Observe(uint64(deficit))
	}
}

// RecordPurged counts n backlogged packets discarded by a flow-queue
// removal as sched/evicted drops. They left the scheduler without a
// dequeue, so the backlog gauge shrinks here (control path: flow
// eviction, instance teardown).
func (m *SchedMetrics) RecordPurged(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.drops[pkt.DropEvicted].Add(uint64(n))
	m.backlog.Add(-int64(n))
}

// RecordHorizonClamp counts a flow rank clamped to the scheduling
// wheel's horizon (an Eiffel flow so light that one packet's virtual
// service exceeds the wheel depth).
//
//eisr:fastpath
func (m *SchedMetrics) RecordHorizonClamp() {
	if m == nil {
		return
	}
	m.clamps.Inc()
}

// SetQueues publishes the count of per-flow queues the instance holds:
// flow slots claimed and not released (a flow's first packet, purge).
func (m *SchedMetrics) SetQueues(n int) {
	if m == nil {
		return
	}
	m.queues.Set(int64(n))
}

// snapshotMetrics copies the registration list under the lock.
func (t *Telemetry) snapshotMetrics() []*metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*metric(nil), t.order...)
}

// sortedMetrics returns the registered metrics sorted by family then
// full name, for deterministic export.
func (t *Telemetry) sortedMetrics() []*metric {
	ms := t.snapshotMetrics()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return ms[i].full < ms[j].full
	})
	return ms
}
