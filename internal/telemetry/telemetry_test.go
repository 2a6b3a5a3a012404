package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/routerplugins/eisr/internal/pkt"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(7)
	if got := nilC.Value(); got != 0 {
		t.Fatalf("nil Counter Value = %d, want 0", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
	var nilG *Gauge
	nilG.Set(5)
	nilG.Inc()
	if got := nilG.Value(); got != 0 {
		t.Fatalf("nil Gauge Value = %d, want 0", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)       // bucket 0
	h.Observe(1)       // bucket 1: [1,1]
	h.Observe(2)       // bucket 2: [2,3]
	h.Observe(3)       // bucket 2
	h.Observe(1 << 40) // clamped into the last bucket
	v := h.Value()
	if v.Count != 5 {
		t.Fatalf("Count = %d, want 5", v.Count)
	}
	if v.Sum != 0+1+2+3+1<<40 {
		t.Fatalf("Sum = %d", v.Sum)
	}
	if v.Buckets[0] != 1 || v.Buckets[1] != 1 || v.Buckets[2] != 2 || v.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("bucket layout wrong: %v", v.Buckets)
	}
	if got := BucketBound(2); got != 3 {
		t.Fatalf("BucketBound(2) = %d, want 3", got)
	}
	if v.Mean() == 0 {
		t.Fatal("Mean = 0 on non-empty histogram")
	}
	var nilH *Histogram
	nilH.Observe(9)
	if nilH.Value().Count != 0 {
		t.Fatal("nil Histogram recorded a sample")
	}
}

func TestRegistryDedupAndKindClash(t *testing.T) {
	tel := New()
	a := tel.Counter("eisr_test_total", "help", Label{"k", "v"})
	b := tel.Counter("eisr_test_total", "ignored", Label{"k", "v"})
	if a != b {
		t.Fatal("same full name did not dedup to the same cell")
	}
	if c := tel.Counter("eisr_test_total", "", Label{"k", "other"}); c == a {
		t.Fatal("distinct labels collapsed to one cell")
	}
	// Same full name, different kind: degraded to a nil no-op cell.
	if g := tel.Gauge("eisr_test_total", "", Label{"k", "v"}); g != nil {
		t.Fatal("kind clash did not return nil")
	}
	if len(tel.Snapshot()) != 2 {
		t.Fatalf("snapshot has %d metrics, want 2", len(tel.Snapshot()))
	}
}

func TestNilRegistry(t *testing.T) {
	var tel *Telemetry
	if c := tel.Counter("x", ""); c != nil {
		t.Fatal("nil registry returned a live counter")
	}
	if g := tel.Gauge("x", ""); g != nil {
		t.Fatal("nil registry returned a live gauge")
	}
	if h := tel.Histogram("x", ""); h != nil {
		t.Fatal("nil registry returned a live histogram")
	}
	if tr := tel.Tracer(); tr != nil {
		t.Fatal("nil registry returned a tracer")
	}
	tel.EnableTrace(16, 1)
	if tel.Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
	if sm := tel.SchedMetrics("drr", "i0"); sm != nil {
		t.Fatal("nil registry returned sched metrics")
	}
	var nilSM *SchedMetrics
	nilSM.RecordEnqueue()
	nilSM.RecordDequeue(3)
	nilSM.RecordPurged(2)
	nilSM.SetQueues(2)
}

// Disabled-mode record calls must not allocate (satellite: true no-op).
func TestDisabledZeroAlloc(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		sm *SchedMetrics
		tr *TraceRing
	)
	n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		h.Observe(7)
		sm.RecordEnqueue()
		e := tr.Acquire()
		e.RecordHop("ip-sec-in", 1, "", 0)
		e.Commit("forwarded", pkt.DropNone, 0, 0)
	})
	if n != 0 {
		t.Fatalf("disabled telemetry allocated %v per op", n)
	}
}

// Enabled-mode record calls must not allocate either — the fastpath
// contract holds whether or not telemetry is on.
func TestEnabledZeroAlloc(t *testing.T) {
	tel := New()
	c := tel.Counter("eisr_alloc_total", "")
	h := tel.Histogram("eisr_alloc_hist", "")
	tel.EnableTrace(64, 1)
	tr := tel.Tracer()
	key := pkt.Key{Proto: 6, SrcPort: 80, DstPort: 8080}
	n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(33)
		e := tr.Acquire()
		e.RecordKey(key, 1)
		e.RecordHop("routing", 2, "drr0", 10)
		e.RecordClassify(true, false, 3, 1)
		e.Commit("forwarded", pkt.DropNone, 1, 100)
	})
	if n != 0 {
		t.Fatalf("enabled telemetry allocated %v per op", n)
	}
}

func TestFindAndCounterValue(t *testing.T) {
	tel := New()
	tel.Counter("eisr_x_total", "", Label{"gate", "routing"}).Add(9)
	mv, ok := tel.Find(`eisr_x_total{gate="routing"}`)
	if !ok || mv.Counter != 9 {
		t.Fatalf("Find = %+v, %v", mv, ok)
	}
	if got := tel.CounterValue(`eisr_x_total{gate="routing"}`); got != 9 {
		t.Fatalf("CounterValue = %d, want 9", got)
	}
	if got := tel.CounterValue("absent"); got != 0 {
		t.Fatalf("CounterValue(absent) = %d, want 0", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	tel := New()
	tel.Counter("eisr_pkts_total", "packets seen", Label{"gate", "sched"}).Add(5)
	tel.Gauge("eisr_depth", "queue depth").Set(3)
	tel.Histogram("eisr_lat_ns", "latency").Observe(100)
	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP eisr_pkts_total packets seen",
		"# TYPE eisr_pkts_total counter",
		`eisr_pkts_total{gate="sched"} 5`,
		"# TYPE eisr_depth gauge",
		"eisr_depth 3",
		"# TYPE eisr_lat_ns histogram",
		`eisr_lat_ns_bucket{le="127"} 1`,
		`eisr_lat_ns_bucket{le="+Inf"} 1`,
		"eisr_lat_ns_sum 100",
		"eisr_lat_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	var nilTel *Telemetry
	if err := nilTel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRingBasics(t *testing.T) {
	r := NewTraceRing(4, 1)
	for i := 0; i < 6; i++ {
		e := r.Acquire()
		if e == nil {
			t.Fatalf("Acquire %d returned nil", i)
		}
		e.RecordKey(pkt.Key{SrcPort: uint16(i)}, int64(i))
		e.RecordHop("ip-sec-in", 7, "aes0", int64(10*i))
		e.RecordClassify(i > 0, i == 0, uint64(i), 1)
		e.Commit("forwarded", pkt.DropNone, 2, int64(100*i))
	}
	got := r.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("Snapshot len = %d, want 4 (ring size)", len(got))
	}
	// Newest first: seqs 5,4,3,2.
	for i, want := range []uint64{5, 4, 3, 2} {
		if got[i].Seq != want {
			t.Fatalf("Snapshot[%d].Seq = %d, want %d", i, got[i].Seq, want)
		}
	}
	top := got[0]
	if top.Verdict != "forwarded" || top.OutIf != 2 || top.TotalNanos != 500 {
		t.Fatalf("top sample wrong: %+v", top)
	}
	if len(top.Hops) != 1 || top.Hops[0].Gate != "ip-sec-in" || top.Hops[0].Instance != "aes0" {
		t.Fatalf("hops wrong: %+v", top.Hops)
	}
	if !top.CacheHit || top.FirstPacket {
		t.Fatalf("classify flags wrong: %+v", top)
	}
	if lim := r.Snapshot(2); len(lim) != 2 {
		t.Fatalf("Snapshot(2) len = %d", len(lim))
	}
}

func TestTraceRingSampling(t *testing.T) {
	r := NewTraceRing(64, 4)
	var traced int
	for i := 0; i < 100; i++ {
		if e := r.Acquire(); e != nil {
			traced++
			e.Commit("forwarded", pkt.DropNone, 0, 0)
		}
	}
	if traced != 25 {
		t.Fatalf("traced %d of 100 with sample=4, want 25", traced)
	}
}

func TestTraceRingSkipsUncommitted(t *testing.T) {
	r := NewTraceRing(4, 1)
	e := r.Acquire() // held, never committed
	if e == nil {
		t.Fatal("Acquire returned nil")
	}
	e2 := r.Acquire()
	e2.Commit("dropped", pkt.DropTTL, -1, 1)
	got := r.Snapshot(0)
	if len(got) != 1 || got[0].Verdict != "dropped" || got[0].DropReason != pkt.DropTTL {
		t.Fatalf("Snapshot = %+v, want only the committed entry", got)
	}
	// The control protocol names the reason by its eisr_drops_total label.
	if b, err := json.Marshal(got[0]); err != nil || !strings.Contains(string(b), `"drop_reason":"ttl-expired"`) {
		t.Fatalf("trace reply %s (%v), want drop_reason ttl-expired", b, err)
	}
	// The busy slot is eventually skipped by a lapping writer, counted.
	for i := 0; i < 8; i++ {
		if w := r.Acquire(); w != nil {
			w.Commit("forwarded", pkt.DropNone, 0, 0)
		}
	}
	if r.Skipped() == 0 {
		t.Fatal("lapping writers never skipped the held slot")
	}
}

func TestNilTraceEntryMethods(t *testing.T) {
	var e *TraceEntry
	e.RecordKey(pkt.Key{}, 0)
	e.RecordHop("g", 0, "", 0)
	e.RecordClassify(false, false, 0, 0)
	e.Commit("", pkt.DropNone, 0, 0)
	var r *TraceRing
	if r.Acquire() != nil {
		t.Fatal("nil ring acquired")
	}
	if r.Snapshot(0) != nil {
		t.Fatal("nil ring snapshot non-nil")
	}
	if r.Skipped() != 0 {
		t.Fatal("nil ring skipped non-zero")
	}
}

// Concurrent registration, increments, and snapshots must be
// race-clean and counters must read monotonically (satellite: -race
// coverage for registration/snapshot).
func TestConcurrentRegistrationAndSnapshot(t *testing.T) {
	tel := New()
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := Label{"gate", []string{"a", "b", "c", "d"}[w]}
			for i := 0; i < 2000; i++ {
				tel.Counter("eisr_conc_total", "", lbl).Inc()
				tel.Histogram("eisr_conc_hist", "", lbl).Observe(uint64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last uint64
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		var total uint64
		for _, mv := range tel.Snapshot() {
			if mv.Family == "eisr_conc_total" {
				total += mv.Counter
			}
		}
		if total < last {
			t.Fatalf("counter went backwards: %d -> %d", last, total)
		}
		last = total
	}
	var total uint64
	for _, mv := range tel.Snapshot() {
		if mv.Family == "eisr_conc_total" {
			total += mv.Counter
		}
	}
	if total != writers*2000 {
		t.Fatalf("final total = %d, want %d", total, writers*2000)
	}
}

// Writers racing a snapshotting reader on the trace ring must be
// race-clean; every returned sample must be internally consistent.
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(32, 1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				e := r.Acquire()
				if e == nil {
					continue
				}
				e.RecordKey(pkt.Key{SrcPort: uint16(w)}, 1)
				e.RecordHop("routing", uint32(w), "", int64(w))
				e.Commit("forwarded", pkt.DropNone, int32(w), int64(w)+1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
		}
		for _, s := range r.Snapshot(16) {
			w := int64(s.OutIf)
			if s.TotalNanos != w+1 || len(s.Hops) != 1 || int64(s.Hops[0].Code) != w {
				t.Fatalf("torn trace sample: %+v", s)
			}
		}
	}
}
