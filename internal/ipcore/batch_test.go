// The chunking-invariance property of the gate walk: one deterministic
// packet trace, walked as vectors of any size — Forward's vector of one,
// Batchers of several sizes, four Run workers — must produce the same
// verdicts, drop reasons, telemetry totals, dispatch counts, flow-cache
// accounting, output order and trace records.
package ipcore

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// newEqRig builds a plugin-mode router with an output queue deep enough
// that queue-full drops cannot differ between drain patterns. workers
// sizes the Run loop (0 forwards inline).
func newEqRig(t *testing.T, tel *telemetry.Telemetry, guard *pcu.Guard, workers int) *testRig {
	t.Helper()
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		t.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})
	routes.Add(pkt.MustParsePrefix("2000::/3"), routing.NextHop{IfIndex: 1})
	a := aiu.New(aiu.Config{InitialFlows: 64, MaxFlows: 1024}, DefaultGates...)
	r, err := New(Config{
		Mode: ModePlugin, AIU: a, Routes: routes, VerifyChecksums: true,
		OutQueueLen: 65536, Tel: tel, Guard: guard, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := netdev.NewInterface(0, netdev.Config{Addr: pkt.MustParseAddr("192.0.2.1")})
	out := netdev.NewInterface(1, netdev.Config{RxRing: 65536})
	sink := netdev.NewInterface(2, netdev.Config{RxRing: 65536})
	netdev.Connect(out, sink)
	r.AddInterface(in)
	r.AddInterface(out)
	return &testRig{r: r, in: in, out: out, sink: sink, a: a}
}

// eqCounterInstance is a scalar-only instance (no HandleBatch): every
// dispatch to it is HandlePacket.
type eqCounterInstance struct {
	name string
	pkts atomic.Uint64
}

func (e *eqCounterInstance) InstanceName() string { return e.name }
func (e *eqCounterInstance) HandlePacket(p *pkt.Packet) error {
	e.pkts.Add(1)
	return nil
}

// eqVerdictInstance denies packets whose source port is a multiple of 7
// — the same verdict logic through both ABI shapes, so runs of two or
// more must reach HandleBatch.
type eqVerdictInstance struct {
	name    string
	pkts    atomic.Uint64
	batches atomic.Uint64
}

func (e *eqVerdictInstance) InstanceName() string { return e.name }

func (e *eqVerdictInstance) verdict(p *pkt.Packet) {
	if p.Key.SrcPort%7 == 0 {
		p.MarkDrop()
	}
}

func (e *eqVerdictInstance) HandlePacket(p *pkt.Packet) error {
	e.pkts.Add(1)
	e.verdict(p)
	return nil
}

func (e *eqVerdictInstance) HandleBatch(ps []*pkt.Packet) {
	e.batches.Add(1)
	e.pkts.Add(uint64(len(ps)))
	for _, p := range ps {
		e.verdict(p)
	}
}

// eqPanicInstance panics on every dispatch, through either ABI shape.
type eqPanicInstance struct {
	name  string
	calls atomic.Uint64
}

func (e *eqPanicInstance) InstanceName() string { return e.name }
func (e *eqPanicInstance) HandlePacket(p *pkt.Packet) error {
	e.calls.Add(1)
	panic("eq: boom")
}
func (e *eqPanicInstance) HandleBatch(ps []*pkt.Packet) {
	e.calls.Add(1)
	panic("eq: boom")
}

const (
	eqFlows = 16
	// eqPanicFlow's packets meet the panicking instance at the routing
	// gate, where nothing else is bound: within a vector they form one
	// run however many there are.
	eqPanicFlow = 3
)

// eqInstances is the trace's plugin population: a scalar-only counter
// at the options gate, a batch-capable verdict instance at the security
// gate, and a panicking instance bound to one flow at the routing gate.
type eqInstances struct {
	opt   *eqCounterInstance
	sec   *eqVerdictInstance
	panic *eqPanicInstance
}

func bindEqInstances(t *testing.T, rig *testRig) eqInstances {
	t.Helper()
	in := eqInstances{
		opt:   &eqCounterInstance{name: "eq-count"},
		sec:   &eqVerdictInstance{name: "eq-verdict"},
		panic: &eqPanicInstance{name: "eq-panic"},
	}
	if _, err := rig.a.Bind(pcu.TypeOptions, aiu.MatchAll(), in.opt, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.a.Bind(pcu.TypeSecurity, aiu.MatchAll(), in.sec, nil); err != nil {
		t.Fatal(err)
	}
	filt := aiu.MustParseFilter(fmt.Sprintf("10.0.0.%d/32, *, UDP, *, *, *", eqPanicFlow))
	if _, err := rig.a.Bind(pcu.TypeRouting, filt, in.panic, nil); err != nil {
		t.Fatal(err)
	}
	return in
}

// eqPacket builds packet i of the deterministic trace: 16 flows, two of
// them IPv6 (one routable, one with no route), source ports chosen so
// flows 1, 8, and 15 are denied by the verdict instance, and flow 3
// bound to the panicking instance.
func eqPacket(t *testing.T, i int) *pkt.Packet {
	t.Helper()
	f := i % eqFlows
	payload := make([]byte, 8)
	binary.BigEndian.PutUint32(payload, uint32(f))
	binary.BigEndian.PutUint32(payload[4:], uint32(i/eqFlows))
	spec := pkt.UDPSpec{SrcPort: uint16(1000 + f), DstPort: 9, Payload: payload, TTL: 64}
	switch f {
	case 5: // no route: 100::1 is outside 2000::/3
		spec.Src, spec.Dst = pkt.MustParseAddr("2001:db8::5"), pkt.MustParseAddr("100::1")
	case 11: // routable v6
		spec.Src, spec.Dst = pkt.MustParseAddr("2001:db8::11"), pkt.MustParseAddr("2001:db8::99")
	default:
		spec.Src, spec.Dst = pkt.AddrV4(0x0a000000+uint32(f)), pkt.AddrV4(0x14000001)
	}
	data, err := pkt.BuildUDP(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pkt.NewPacket(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Stamp = pkt.Nanotime()
	return p
}

// drainEq flushes the output queue and collects the sink's packets.
func drainEq(t *testing.T, rig *testRig) []*pkt.Packet {
	t.Helper()
	for rig.r.TxDrain(1, 4096) > 0 {
	}
	var out []*pkt.Packet
	for {
		p := rig.sink.Poll()
		if p == nil {
			return out
		}
		out = append(out, p)
	}
}

// eqFlowSeq decodes the (flow, seq) pair a trace packet carries.
func eqFlowSeq(t *testing.T, p *pkt.Packet) (uint32, uint32) {
	t.Helper()
	off := pkt.IPv4HeaderLen + 8
	if p.Data[0]>>4 == 6 {
		off = 40 + 8
	}
	pl := p.Data[off:]
	return binary.BigEndian.Uint32(pl), binary.BigEndian.Uint32(pl[4:])
}

// eqCounters renders the deterministic counter families — everything
// except the timing histograms, which legitimately differ run to run.
func eqCounters(t *testing.T, tel *telemetry.Telemetry) string {
	t.Helper()
	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	keep := []string{
		"eisr_gate_dispatch_total", "eisr_verdicts_total", "eisr_drops_total",
		"eisr_degraded_packets_total",
	}
	var out []string
	for _, ln := range strings.Split(sb.String(), "\n") {
		for _, f := range keep {
			if strings.HasPrefix(ln, f) && !strings.HasPrefix(ln, "#") {
				out = append(out, ln)
			}
		}
	}
	return strings.Join(out, "\n")
}

// eqTraceDigest renders trace-ring samples oldest first, without timings.
func eqTraceDigest(samples []telemetry.TraceSample) []string {
	var out []string
	for i := len(samples) - 1; i >= 0; i-- { // snapshot is newest first
		s := samples[i]
		var hops []string
		for _, h := range s.Hops {
			hops = append(hops, h.Gate+"/"+h.Instance)
		}
		out = append(out, fmt.Sprintf("%s %s %s hit=%v first=%v hops=%s",
			s.Flow, s.Verdict, s.DropReason, s.CacheHit, s.FirstPacket, strings.Join(hops, ",")))
	}
	return out
}

// eqRun is everything observable about one walk of the trace.
type eqRun struct {
	survived      int
	stats         Stats
	counters      string
	opt, sec      uint64 // packets dispatched to the options and security instances
	secBatches    uint64 // HandleBatch calls at the security gate
	cached, first uint64
	sink          []*pkt.Packet
	traces        []string
	health        pcu.InstanceHealth
	quarantined   bool
}

// eqWalk walks the first total packets of the trace through a fresh rig,
// fed by feed, and collects everything observable about the walk. traced
// turns on the trace ring (every 4th packet) and in-band path tracing;
// threshold is the health tracker's quarantine threshold.
func eqWalk(t *testing.T, total, workers, threshold int, traced bool, feed func(rig *testRig)) eqRun {
	t.Helper()
	tel := telemetry.New()
	if traced {
		tel.EnableTrace(total, 4)
		tel.EnablePathTrace(7, 256, 2)
	}
	guard := pcu.NewGuard(pcu.PolicyDrop, pcu.NewHealth(pcu.HealthConfig{
		Threshold: threshold, Window: time.Hour,
	}))
	rig := newEqRig(t, tel, guard, workers)
	in := bindEqInstances(t, rig)
	var res eqRun
	feed(rig)
	res.sink = drainEq(t, rig)
	res.stats = rig.r.Stats()
	res.counters = eqCounters(t, tel)
	res.opt, res.sec, res.secBatches = in.opt.pkts.Load(), in.sec.pkts.Load(), in.sec.batches.Load()
	res.cached, res.first = rig.a.Stats()
	if traced {
		res.traces = eqTraceDigest(tel.Tracer().Snapshot(total))
	}
	for _, h := range guard.Health().Report() {
		if h.Instance == in.panic.name {
			res.health = h
		}
	}
	res.quarantined = guard.Health().IsQuarantined(in.panic)
	return res
}

// eqBatched feeds the first total packets of the trace to a Batcher of
// the given capacity in slices of chunk, adding the survivors to
// *survived.
func eqBatched(t *testing.T, total, chunk, capacity int, survived *int) func(*testRig) {
	return func(rig *testRig) {
		b := rig.r.NewBatcher(capacity)
		ps := make([]*pkt.Packet, 0, chunk)
		for i := 0; i < total; {
			ps = ps[:0]
			for k := 0; k < chunk && i < total; k++ {
				ps = append(ps, eqPacket(t, i))
				i++
			}
			*survived += b.ForwardBatch(ps)
		}
	}
}

// TestBatchEquivalence feeds the same trace at chunk sizes 1 (Forward),
// 3 (re-chunked by a Batcher of cap 2), 8 and 32, and through four Run
// workers, with the trace ring and in-band path tracing sampling,
// and requires every chunking to match the vector-of-one reference.
// The panicking instance must cost one fault per run — per vector that
// carries its flow — with that many faults recorded against it and the
// instance quarantined at exactly that threshold.
func TestBatchEquivalence(t *testing.T) {
	const total = 4096
	// vectors splits the trace into the walked vectors: chunks of the
	// fed size, each re-chunked at the Batcher's cap.
	vectors := func(chunk, capacity int) [][2]int {
		var out [][2]int
		for i := 0; i < total; i += chunk {
			end := min(i+chunk, total)
			for j := i; j < end; j += capacity {
				out = append(out, [2]int{j, min(j+capacity, end)})
			}
		}
		return out
	}
	// panicRuns counts the vectors carrying the panicking flow: one
	// panicking run (one fault) each.
	panicRuns := func(vs [][2]int) int {
		n := 0
		for _, v := range vs {
			for i := v[0]; i < v[1]; i++ {
				if i%eqFlows == eqPanicFlow {
					n++
					break
				}
			}
		}
		return n
	}
	refRuns := panicRuns(vectors(1, 1))
	refSurvived := 0
	ref := eqWalk(t, total, 0, refRuns, true, func(rig *testRig) {
		for i := 0; i < total; i++ {
			if rig.r.Forward(eqPacket(t, i)) {
				refSurvived++
			}
		}
	})
	ref.survived = refSurvived
	if ref.secBatches != 0 {
		t.Errorf("vectors of one reached HandleBatch %d times", ref.secBatches)
	}
	if len(ref.traces) == 0 {
		t.Fatal("the reference run produced no trace samples")
	}

	// check compares one chunking against the reference. exact: the
	// output and trace-ring order are the submission order (one walker);
	// otherwise only per-flow order is defined.
	check := func(t *testing.T, got eqRun, survived int, exact bool, runs int) {
		t.Helper()
		if exact && survived != ref.survived {
			t.Errorf("survived: %d, reference %d", survived, ref.survived)
		}
		gs, rs := got.stats, ref.stats
		gs.PluginFaults, rs.PluginFaults = 0, 0
		if gs != rs {
			t.Errorf("stats diverge:\ngot %+v\nref %+v", got.stats, ref.stats)
		}
		if got.counters != ref.counters {
			t.Errorf("telemetry counters diverge:\ngot:\n%s\nref:\n%s", got.counters, ref.counters)
		}
		if got.opt != ref.opt || got.sec != ref.sec {
			t.Errorf("dispatches: opt=%d sec=%d, reference opt=%d sec=%d", got.opt, got.sec, ref.opt, ref.sec)
		}
		if got.secBatches == 0 {
			t.Error("runs of two or more never reached HandleBatch")
		}
		if got.cached != ref.cached || got.first != ref.first {
			t.Errorf("flow cache: cached=%d first=%d, reference cached=%d first=%d",
				got.cached, got.first, ref.cached, ref.first)
		}
		// One panicking run is one fault, whatever its length, and the
		// health tracker counts exactly those.
		if runs > 0 && got.stats.PluginFaults != uint64(runs) {
			t.Errorf("faults = %d, want %d (one per panicking run)", got.stats.PluginFaults, runs)
		}
		if got.health.Faults != got.stats.PluginFaults {
			t.Errorf("health recorded %d faults, router counted %d", got.health.Faults, got.stats.PluginFaults)
		}
		if runs > 0 && !got.quarantined {
			t.Errorf("instance not quarantined at its threshold of %d faults", runs)
		}
		if len(got.sink) != len(ref.sink) {
			t.Fatalf("sink packets: %d, reference %d", len(got.sink), len(ref.sink))
		}
		perFlow := func(sink []*pkt.Packet) map[uint32][]uint32 {
			m := make(map[uint32][]uint32)
			for _, p := range sink {
				f, seq := eqFlowSeq(t, p)
				m[f] = append(m[f], seq)
			}
			return m
		}
		if exact {
			for i := range ref.sink {
				rf, rseq := eqFlowSeq(t, ref.sink[i])
				gf, gseq := eqFlowSeq(t, got.sink[i])
				if rf != gf || rseq != gseq {
					t.Fatalf("sink[%d]: flow=%d seq=%d, reference flow=%d seq=%d", i, gf, gseq, rf, rseq)
				}
			}
		} else {
			rflows, gflows := perFlow(ref.sink), perFlow(got.sink)
			for f, rseq := range rflows {
				if fmt.Sprint(gflows[f]) != fmt.Sprint(rseq) {
					t.Fatalf("flow %d order: %v, reference %v", f, gflows[f], rseq)
				}
			}
		}
		// In-band path records on the packets that reached the sink; in
		// per-flow order when the total order is not defined.
		hops := func(sink []*pkt.Packet) map[string][]string {
			m := make(map[string][]string)
			for _, p := range sink {
				f, _ := eqFlowSeq(t, p)
				key := "all"
				if !exact {
					key = fmt.Sprint(f)
				}
				rec := fmt.Sprintf("active=%v nhops=%d", p.Path.Active, p.Path.NHops)
				for h := 0; h < int(p.Path.NHops); h++ {
					hp := p.Path.Hops[h]
					rec += fmt.Sprintf(" [%d %d %d %b %d]", hp.Router, hp.InIf, hp.OutIf, hp.Gates, hp.Verdict)
				}
				m[key] = append(m[key], rec)
			}
			return m
		}
		if g, r := hops(got.sink), hops(ref.sink); fmt.Sprint(g) != fmt.Sprint(r) {
			t.Errorf("path hop records diverge")
		}
		// Trace-ring sampling takes every 4th packet in walk order, which
		// only a single walker shares with the reference.
		if exact && strings.Join(got.traces, "\n") != strings.Join(ref.traces, "\n") {
			t.Errorf("trace-ring samples diverge:\ngot %d, reference %d", len(got.traces), len(ref.traces))
		}
	}
	traced := 0
	for _, p := range ref.sink {
		if !p.Path.Active {
			continue
		}
		traced++
		// Options and security dispatched an instance; routing is bound
		// only for the panicking flow, which never reaches the sink.
		if p.Path.NHops != 1 || p.Path.Hops[0].Gates != 0b11 {
			t.Fatalf("path hop of a forwarded packet: nhops=%d gates=%b, want 1 hop with gates 11",
				p.Path.NHops, p.Path.Hops[0].Gates)
		}
	}
	if traced == 0 {
		t.Fatal("no path-traced packet reached the sink")
	}

	for _, tc := range []struct{ chunk, capacity int }{{3, 2}, {8, 8}, {32, 32}} {
		t.Run(fmt.Sprintf("chunk=%d", tc.chunk), func(t *testing.T) {
			runs := panicRuns(vectors(tc.chunk, tc.capacity))
			survived := 0
			got := eqWalk(t, total, 0, runs, true, eqBatched(t, total, tc.chunk, tc.capacity, &survived))
			check(t, got, survived, true, runs)
		})
	}
	t.Run("pool4", func(t *testing.T) {
		const workers = 4
		got := eqWalk(t, total, workers, 0, true, func(rig *testRig) {
			stop := startRun(rig)
			defer stop()
			// Keep in-flight below half a ring so Receive never sheds: a
			// shed would count a drop the reference lacks.
			for i := 0; i < total; i++ {
				for uint64(i)-verdicts(rig.r) > 256 {
					time.Sleep(50 * time.Microsecond)
				}
				if err := rig.in.Inject(eqPacket(t, i).Data); err != nil {
					t.Fatalf("inject %d: %v", i, err)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for verdicts(rig.r) < total && time.Now().Before(deadline) {
				time.Sleep(50 * time.Microsecond)
			}
		})
		check(t, got, 0, false, 0)
		// Worker vectors vary with timing: between one fault per packet
		// of the panicking flow and one per full vector of it.
		n := uint64(total / eqFlows)
		if f := got.stats.PluginFaults; f == 0 || f > n {
			t.Errorf("Run faults = %d, want 1..%d", f, n)
		}
	})
}

// TestBatchEquivalenceTraced checks that sampling changes only the
// samples. The trace walked by a Batcher of 32 with the trace ring and
// in-band path tracing on must forward, count and dispatch exactly as
// the same walk with tracing off, and its trace-ring entries and path
// hop records must match those of the traced vector-of-one walk.
func TestBatchEquivalenceTraced(t *testing.T) {
	const total = 2048
	// Quarantine off: a fault costs the same packets at every chunking.
	const threshold = -1
	scalar := eqWalk(t, total, 0, threshold, true, func(rig *testRig) {
		for i := 0; i < total; i++ {
			rig.r.Forward(eqPacket(t, i))
		}
	})
	tracedSurvived, plainSurvived := 0, 0
	traced := eqWalk(t, total, 0, threshold, true, eqBatched(t, total, 32, 32, &tracedSurvived))
	plain := eqWalk(t, total, 0, threshold, false, eqBatched(t, total, 32, 32, &plainSurvived))

	if len(scalar.traces) == 0 {
		t.Fatal("the vector-of-one run produced no trace samples")
	}
	if len(traced.traces) != len(scalar.traces) {
		t.Fatalf("trace samples: vector of one %d, batch %d", len(scalar.traces), len(traced.traces))
	}
	for i := range scalar.traces {
		if scalar.traces[i] != traced.traces[i] {
			t.Fatalf("trace sample %d diverges:\nvector of one %s\nbatch         %s", i, scalar.traces[i], traced.traces[i])
		}
	}
	if len(traced.sink) != len(scalar.sink) || len(plain.sink) != len(scalar.sink) {
		t.Fatalf("sink packets: vector of one %d, traced batch %d, untraced batch %d",
			len(scalar.sink), len(traced.sink), len(plain.sink))
	}
	paths := 0
	for i := range scalar.sink {
		sp, bp := scalar.sink[i].Path, traced.sink[i].Path
		if sp.Active != bp.Active || sp.NHops != bp.NHops {
			t.Fatalf("sink[%d] path context diverges: vector of one active=%v nhops=%d, batch active=%v nhops=%d",
				i, sp.Active, sp.NHops, bp.Active, bp.NHops)
		}
		if plain.sink[i].Path.Active {
			t.Fatalf("sink[%d] carries a path context with path tracing off", i)
		}
		if !sp.Active {
			continue
		}
		paths++
		for h := 0; h < int(sp.NHops); h++ {
			sh, bh := sp.Hops[h], bp.Hops[h]
			if sh.Router != bh.Router || sh.InIf != bh.InIf || sh.OutIf != bh.OutIf ||
				sh.Gates != bh.Gates || sh.Verdict != bh.Verdict {
				t.Fatalf("sink[%d] hop %d diverges: vector of one %+v, batch %+v", i, h, sh, bh)
			}
		}
	}
	if paths == 0 {
		t.Fatal("no path-traced packet reached the sink")
	}

	// Tracing on and off: the same walk in every other respect.
	if tracedSurvived != plainSurvived {
		t.Errorf("survived: traced %d, untraced %d", tracedSurvived, plainSurvived)
	}
	if traced.stats != plain.stats {
		t.Errorf("stats diverge:\ntraced   %+v\nuntraced %+v", traced.stats, plain.stats)
	}
	if traced.counters != plain.counters {
		t.Errorf("telemetry counters diverge:\ntraced:\n%s\nuntraced:\n%s", traced.counters, plain.counters)
	}
	if traced.opt != plain.opt || traced.sec != plain.sec || traced.secBatches != plain.secBatches {
		t.Errorf("dispatches: traced opt=%d sec=%d batches=%d, untraced opt=%d sec=%d batches=%d",
			traced.opt, traced.sec, traced.secBatches, plain.opt, plain.sec, plain.secBatches)
	}
	if traced.cached != plain.cached || traced.first != plain.first {
		t.Errorf("flow cache: traced cached=%d first=%d, untraced cached=%d first=%d",
			traced.cached, traced.first, plain.cached, plain.first)
	}
	for i := range traced.sink {
		tf, tseq := eqFlowSeq(t, traced.sink[i])
		pf, pseq := eqFlowSeq(t, plain.sink[i])
		if tf != pf || tseq != pseq {
			t.Fatalf("sink[%d]: traced flow=%d seq=%d, untraced flow=%d seq=%d", i, tf, tseq, pf, pseq)
		}
	}
}

// TestBatchQuarantineEquivalence proves a panicking HandleBatch drops
// only the offending run — innocent packets in the same batch keep
// forwarding — and that quarantine accounting matches the vector of
// one: one panic is one fault, and the same threshold quarantines both.
func TestBatchQuarantineEquivalence(t *testing.T) {
	const threshold = 3
	mkGuard := func() *pcu.Guard {
		return pcu.NewGuard(pcu.PolicyDrop, pcu.NewHealth(pcu.HealthConfig{
			Threshold: threshold, Window: time.Hour,
		}))
	}
	filt := aiu.MustParseFilter("10.0.0.0/8, *, UDP, *, *, *")

	// Vector-of-one reference: threshold panicking packets quarantine.
	sGuard := mkGuard()
	scalar := newEqRig(t, nil, sGuard, 0)
	sInst := &eqPanicInstance{name: "eq-panic"}
	if _, err := scalar.a.Bind(pcu.TypeSecurity, filt, sInst, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threshold; i++ {
		if scalar.r.Forward(sendUDP(t, scalar, "10.0.0.1", "20.0.0.1", 1000, 9)) {
			t.Fatal("faulted packet forwarded under the drop policy")
		}
	}
	ss := scalar.r.Stats()
	if ss.PluginFaults != threshold || ss.Dropped != threshold {
		t.Fatalf("vector-of-one stats: %+v", ss)
	}
	if !sGuard.Health().IsQuarantined(sInst) {
		t.Fatal("vector-of-one instance not quarantined at threshold")
	}

	// Batch arm: mixed batches of 4 panicking-flow and 4 innocent-flow
	// packets. The innocent flow has no instance at the gate, so its
	// slots sit inside the run without splitting it — one fault per
	// batch, and only the panicking flow's packets die.
	bGuard := mkGuard()
	batch := newEqRig(t, nil, bGuard, 0)
	bInst := &eqPanicInstance{name: "eq-panic-batch"}
	if _, err := batch.a.Bind(pcu.TypeSecurity, filt, bInst, nil); err != nil {
		t.Fatal(err)
	}
	b := batch.r.NewBatcher(8)
	for round := 0; round < threshold; round++ {
		ps := make([]*pkt.Packet, 0, 8)
		for k := 0; k < 4; k++ {
			ps = append(ps, sendUDP(t, batch, "10.0.0.1", "20.0.0.1", 1000, 9))
			ps = append(ps, sendUDP(t, batch, "11.0.0.1", "20.0.0.1", 1000, 9))
		}
		if got := b.ForwardBatch(ps); got != 4 {
			t.Fatalf("round %d: %d packets survived the mixed batch, want the 4 innocent ones", round, got)
		}
	}
	bs := batch.r.Stats()
	if bs.PluginFaults != threshold {
		t.Errorf("batch faults = %d, want %d (one per panicking run)", bs.PluginFaults, threshold)
	}
	if bs.Dropped != threshold*4 {
		t.Errorf("batch dropped = %d, want %d (only the offending run)", bs.Dropped, threshold*4)
	}
	if bs.Forwarded != threshold*4 {
		t.Errorf("batch forwarded = %d, want %d", bs.Forwarded, threshold*4)
	}
	if bInst.calls.Load() != threshold {
		t.Errorf("HandleBatch entered %d times, want %d", bInst.calls.Load(), threshold)
	}
	if !bGuard.Health().IsQuarantined(bInst) {
		t.Error("batch instance not quarantined at the same threshold")
	}
	sink := drainEq(t, batch)
	if len(sink) != threshold*4 {
		t.Fatalf("sink got %d packets, want %d innocents", len(sink), threshold*4)
	}
	for i, p := range sink {
		if p.Key.Src != pkt.MustParseAddr("11.0.0.1") {
			t.Fatalf("sink[%d] is not an innocent-flow packet: %v", i, p.Key.Src)
		}
	}
}

// wedgeInstance parks the dispatching worker until released; entered is
// closed on the first dispatch.
type wedgeInstance struct {
	name    string
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *wedgeInstance) InstanceName() string { return w.name }
func (w *wedgeInstance) HandlePacket(p *pkt.Packet) error {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return nil
}

// TestWedgedWorkerFillsOnlyItsRing: a worker that cannot keep up —
// here parked inside a dispatch — fills only its own RX ring. Receive
// sheds that flow's further packets as netdev ring-full drops, while
// every flow steered to the other worker keeps being forwarded.
func TestWedgedWorkerFillsOnlyItsRing(t *testing.T) {
	const workers = 2
	rig := newParallelRig(t, workers)

	// Find two flows steered to different workers.
	fA, fB := -1, -1
	for f := 0; f < 64 && (fA < 0 || fB < 0); f++ {
		switch pkt.SteerWorker(seqPacket(t, f, 0).Hash, workers) {
		case 0:
			if fA < 0 {
				fA = f
			}
		case 1:
			if fB < 0 {
				fB = f
			}
		}
	}
	if fA < 0 || fB < 0 {
		t.Fatal("steering put 64 flows on one worker")
	}

	wedge := &wedgeInstance{name: "wedge", entered: make(chan struct{}), release: make(chan struct{})}
	filt := aiu.MustParseFilter(fmt.Sprintf("10.0.0.%d/32, *, UDP, *, *, *", fA))
	if _, err := rig.a.Bind(pcu.TypeSecurity, filt, wedge, nil); err != nil {
		t.Fatal(err)
	}
	stop := startRun(rig)
	t.Cleanup(func() {
		close(wedge.release)
		stop()
	})

	if err := injectSeq(t, rig, fA, 0); err != nil {
		t.Fatal(err)
	}
	<-wedge.entered // flow A's worker is now parked mid-dispatch

	// Fill the wedged worker's ring until Receive sheds.
	shed := false
	for i := 0; i < parallelRing+64 && !shed; i++ {
		shed = injectSeq(t, rig, fA, uint32(i+1)) == netdev.ErrRingFull
	}
	if !shed {
		t.Fatal("Receive never shed with a wedged worker")
	}
	sheds := rig.in.Stats().RxDropRing
	if sheds == 0 {
		t.Fatal("shed not counted as a ring-full drop")
	}
	if d := rig.r.Stats().Dropped; d != 0 {
		t.Errorf("the core counted %d drops for packets it never saw", d)
	}

	// The other worker's flow is unaffected.
	const n = 100
	for i := 0; i < n; i++ {
		if err := injectSeq(t, rig, fB, uint32(i)); err != nil {
			t.Fatalf("flow B packet %d: %v despite an idle owner", i, err)
		}
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < n && time.Now().Before(deadline) {
		if p := rig.sink.Poll(); p != nil {
			if src := p.Key.Src; src != pkt.AddrV4(0x0a000000+uint32(fB)) {
				t.Fatalf("sink got a packet from %v, want only flow B", src)
			}
			p.ReleaseBuf()
			got++
			continue
		}
		time.Sleep(time.Millisecond)
	}
	if got < n {
		t.Fatalf("idle worker forwarded %d of %d while its sibling was wedged", got, n)
	}
	if n := rig.in.Stats().RxDropRing; n != sheds {
		t.Errorf("the idle worker's ring shed %d packets", n-sheds)
	}
}

// TestPoolDropCounterExposed pins the export of a full worker ring's
// sheds: with no worker running, flow A's ring fills and every further
// packet of it is counted once, as the interface's ring-full RX drop,
// while the other worker's ring still has room.
func TestPoolDropCounterExposed(t *testing.T) {
	tel := telemetry.New()
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		t.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})
	r, err := New(Config{Mode: ModeBestEffort, Routes: routes, Workers: 2, Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	const ring = 64
	in := netdev.NewInterface(0, netdev.Config{Name: "in0", RxRing: ring, MTU: parallelMTU})
	r.AddInterface(in)
	rig := &testRig{r: r, in: in}
	fA := 1
	fB := fA + 1
	for pkt.SteerWorker(seqPacket(t, fB, 0).Hash, 2) == pkt.SteerWorker(seqPacket(t, fA, 0).Hash, 2) {
		fB++
	}
	want := uint64(0)
	for i := 0; i < ring+200; i++ {
		if injectSeq(t, rig, fA, uint32(i)) != nil {
			want++
		}
	}
	if want != 200 {
		t.Fatalf("%d sheds from a %d-deep ring after %d packets, want 200", want, ring, ring+200)
	}
	if err := injectSeq(t, rig, fB, 0); err != nil {
		t.Errorf("the other worker's ring refused a packet: %v", err)
	}
	const ringFull = `eisr_drops_total{layer="netdev",iface="in0",dir="rx",reason="ring-full"}`
	if got := tel.CounterValue(ringFull); got != want {
		t.Errorf("%s = %d, want %d", ringFull, got, want)
	}
	if got := r.Stats().Dropped; got != 0 {
		t.Errorf("Stats().Dropped = %d, want 0: the core never saw the shed packets", got)
	}
}

// takeThenPanic is a scheduling instance whose HandleBatch takes the
// first k packets of its run — clearing their slots, the receipt — and
// then panics.
type takeThenPanic struct {
	k     int
	held  []*pkt.Packet
	calls int
}

func (s *takeThenPanic) InstanceName() string { return "take-then-panic" }
func (s *takeThenPanic) HandlePacket(*pkt.Packet) error {
	panic("take-then-panic: scalar dispatch")
}
func (s *takeThenPanic) HandleBatch(ps []*pkt.Packet) {
	s.calls++
	for i := range s.k {
		s.held = append(s.held, ps[i])
		ps[i] = nil
	}
	panic("take-then-panic: boom")
}

// releaseCounter is a BufOwner that counts each packet's releases.
type releaseCounter map[*pkt.Packet]int

func (c releaseCounter) ReleaseMbuf(p *pkt.Packet) { c[p]++ }

// TestSchedBatchPanicAfterTaking pins dispatchRun's rule that a cleared
// slot is the handler's receipt, even from a run that went on to panic.
// The k packets the instance took before panicking are its own: counted
// as scheduler enqueues and forwarded, given no fault verdict and never
// released by the walk. The rest of the run meets the fault policy —
// plugin-fault drops under PolicyDrop, the port FIFO under
// PolicyForward — and the run is one fault.
func TestSchedBatchPanicAfterTaking(t *testing.T) {
	const run, k = 6, 2
	for _, policy := range []pcu.Policy{pcu.PolicyDrop, pcu.PolicyForward} {
		t.Run(policy.String(), func(t *testing.T) {
			rig := newEqRig(t, nil, pcu.NewGuard(policy, pcu.NewHealth(pcu.HealthConfig{Threshold: -1})), 0)
			inst := &takeThenPanic{k: k}
			if _, err := rig.a.Bind(pcu.TypeSched, aiu.MatchAll(), inst, nil); err != nil {
				t.Fatal(err)
			}
			released := releaseCounter{}
			ps := make([]*pkt.Packet, run)
			for i := range ps {
				ps[i] = sendUDP(t, rig, "10.0.0.1", "20.0.0.1", 1000, 9)
				ps[i].Owner = released
			}
			in := append([]*pkt.Packet(nil), ps...)
			rig.r.NewBatcher(run).ForwardBatch(ps)

			if inst.calls != 1 || len(inst.held) != k {
				t.Fatalf("HandleBatch ran %d times and took %d packets, want 1 and %d", inst.calls, len(inst.held), k)
			}
			for i, p := range inst.held {
				if p != in[i] || released[p] != 0 || p.Owner == nil {
					t.Errorf("taken packet %d: released %d times by the walk, want 0", i, released[p])
				}
			}
			s := rig.r.Stats()
			if s.SchedEnq != k || s.PluginFaults != 1 {
				t.Errorf("SchedEnq %d, PluginFaults %d; want %d and 1: %+v", s.SchedEnq, s.PluginFaults, k, s)
			}
			fifo := rig.r.state.Load().ports[1].outQ.Len()
			rest := in[k:]
			if policy == pcu.PolicyDrop {
				if s.Forwarded != k || s.Dropped != run-k || s.Degraded != 0 || fifo != 0 {
					t.Errorf("drop policy: forwarded %d, dropped %d, degraded %d, FIFO %d; want %d, %d, 0, 0",
						s.Forwarded, s.Dropped, s.Degraded, fifo, k, run-k)
				}
				if got := rig.r.stats.drops[pkt.DropPluginFault].Value(); got != run-k {
					t.Errorf("plugin-fault drops = %d, want %d", got, run-k)
				}
				for i, p := range rest {
					if released[p] != 1 {
						t.Errorf("dropped packet %d released %d times, want once", i, released[p])
					}
				}
				return
			}
			if s.Forwarded != run || s.Dropped != 0 || s.Degraded != run-k || fifo != run-k {
				t.Errorf("forward policy: forwarded %d, dropped %d, degraded %d, FIFO %d; want %d, 0, %d, %d",
					s.Forwarded, s.Dropped, s.Degraded, fifo, run, run-k, run-k)
			}
			for i, p := range rest {
				if released[p] != 0 {
					t.Errorf("queued packet %d released %d times, want 0", i, released[p])
				}
			}
		})
	}
}
