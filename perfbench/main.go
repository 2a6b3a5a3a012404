// Command perfbench is the router's benchmark: it assembles the router
// through its public entry points, drives one workload for a fixed
// time, checks every packet it sent, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run) with a
// JSON summary as the last line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
)

const (
	// Set-up runs at least minSetups times and until setupBudget of
	// assembly has been timed (at most maxSetups); setup_s is the median.
	minSetups   = 3
	maxSetups   = 101
	setupBudget = time.Second
	// warmup is driven before measuring so caches, the flow table and
	// the heap reach their steady state.
	warmup = time.Second
	// verifierSlots bounds the packets the verifier tracks in flight.
	verifierSlots = 1 << 16
	// sampleCap bounds the latency samples kept per phase.
	sampleCap = 1 << 20
	// traceEvery: a traced run keeps the spans of one packet in this many.
	traceEvery = 256
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "", "workload: cachehit or fibchurn")
	fl.Uint64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fl.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fl.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fl.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes its spans and self-time summary")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	switch {
	case o.workload != "cachehit" && o.workload != "fibchurn",
		o.seconds < 1, trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: need --workload (cachehit, fibchurn), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	o.trace = trace == 1
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// counters is a snapshot of the router's own counters.
type counters struct {
	aiuCached, aiuFirst                    uint64
	netdevDrops, mbufFallback, ipcoreDrops uint64
	memAccesses                            uint64
}

// ledger accounts for every packet sent to the final router: each is
// verified at the sink, delivered but failing verification, or dropped
// and counted by a layer. What is left is unaccounted — lost where no
// counter saw it.
type ledger struct {
	sent, verified, invalid int64
	netdev, ipcore          uint64
	firstErr                error
	detail                  string
}

func (l ledger) unaccounted() int64 {
	return l.sent - l.verified - l.invalid - int64(l.netdev+l.ipcore)
}

func (l ledger) failed() int64 { return l.sent - l.verified }

func (l ledger) String() string {
	s := fmt.Sprintf("sent=%d verified=%d invalid=%d drops{netdev=%d ipcore=%d} unaccounted=%d; %s",
		l.sent, l.verified, l.invalid, l.netdev, l.ipcore, l.unaccounted(), l.detail)
	if l.firstErr != nil {
		s += "; first check failure: " + l.firstErr.Error()
	}
	return s
}

func coreDrops(s ipcore.Stats) string {
	return fmt.Sprintf("ipcore{dropped=%d ttl=%d checksum=%d no_route=%d plugin=%d fault=%d}",
		s.Dropped, s.TTLExpired, s.BadChecksum, s.NoRoute, s.PluginDrops, s.PluginFaults)
}

// hostLine records what the numbers depend on besides the code,
// including how fast the host runs the ruler right now.
func hostLine(rul *ruler) string {
	rmem := int64(-1)
	if b, err := os.ReadFile("/proc/sys/net/core/rmem_default"); err == nil {
		if v, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64); err == nil {
			rmem = v
		}
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s rmem_default=%d ruler_ns=%.0f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rmem, rul.reading(setupReadings))
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func bench(o options, out io.Writer) (*result, error) {
	// The load runs on this goroutine; pinned to one OS thread, that
	// thread's CPU time is the load's (see threadNanos).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// fibchurn's packets miss the caches; its ruler does lookups too.
	rul := newRuler(o.workload == "fibchurn")
	header := []string{
		hostLine(rul),
		fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%v", o.workload, o.seed, o.seconds, o.trace),
	}
	for _, h := range header {
		fmt.Fprintln(out, h)
	}

	// Inputs and every harness buffer exist before the heap baseline,
	// so heap_mb counts the router alone.
	gen := cachehitInputs
	if o.workload == "fibchurn" {
		gen = fibchurnInputs
	}
	in, err := gen(o.seed)
	if err != nil {
		return nil, err
	}
	h := &simHarness{in: in, ver: newVerifier(verifierSlots), rng: rand.New(rand.NewPCG(o.seed, 5))}
	ph := newPhase(newSampler(sampleCap), rul)
	var tr *tracer
	if o.trace {
		tr = newTracer(traceEvery)
	}
	base := liveHeap()

	s, st, err := setUp(h.assemble, rul, tr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "setup: %d assemblies, median %.6f s of CPU, %.6f s of wall time (build median %.6f s), ruler %.0f ns\n",
		len(st.setups), median(st.setups), median(st.walls), median(st.builds), st.rulerNs)

	ph.begin(nanotime(), warmup)
	s.load(ph, nil)

	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		d /= 2
	}
	ph.begin(nanotime(), d)
	s.load(ph, nil)
	plain, err := ph.summarize()
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}

	var layers map[string]metric
	var traced summary
	if o.trace {
		if layers, traced, err = tracedPhase(s, ph, tr, d, st.builds); err != nil {
			return nil, err
		}
	}

	led := s.finish()
	heapMB := float64(int64(liveHeap())-int64(base)) / 1e6
	// The router must stay live through the reading, and so must the
	// harness's buffers, or their collection would be subtracted from
	// the router's heap.
	runtime.KeepAlive(s)
	runtime.KeepAlive(ph)
	runtime.KeepAlive(tr)

	e2e := map[string]metric{
		"fwd_kpps":       {plain.kpps, "kpkt/s"},
		"lat_p50_us":     {plain.p50us, "us"},
		"lat_p99_us":     {plain.p99us, "us"},
		"cpu_us_per_pkt": {plain.cpuUsPerPkt, "us"},
		"heap_mb":        {heapMB, "MB"},
		"setup_s":        {st.scaled(rul.refNs), "s"},
	}
	fmt.Fprintf(out, "untraced phase: %d slices over %v, %d packets, %d latency samples, ruler %.0f ns (times scaled by %.3f)\n",
		plain.slices, plain.wall.Round(time.Millisecond), plain.pkts, plain.samples, plain.rulerNs, rul.refNs/plain.rulerNs)
	fmt.Fprintf(out, "unscaled: fwd_kpps %.4f lat_p50_us %.4f lat_p99_us %.4f cpu_us_per_pkt %.4f setup_s %.6f (CPU)\n",
		plain.raw.kpps, plain.raw.p50us, plain.raw.p99us, plain.raw.cpuUsPerPkt, median(st.setups))
	printMetrics(out, e2e)
	fmt.Fprintln(out, "ledger:", led)
	fmt.Fprintf(out, "host after: ruler_ns=%.0f\n", rul.reading(setupReadings))

	res := &result{
		Correct:   led.failed() == 0 && led.unaccounted() == 0,
		Attempted: led.sent,
		Failed:    led.failed(),
		Metrics:   e2e,
	}
	if o.trace {
		overhead := overheadLines(plain, traced)
		for _, l := range overhead {
			fmt.Fprintln(out, l)
		}
		printMetrics(out, layers)
		stem := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
		summary := append(append(header, overhead...), "ledger: "+led.String())
		spans, table, err := tr.writeFiles(o.traceDir, stem, summary)
		if err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		tr.writeSummary(out)
		fmt.Fprintf(out, "trace: %d spans kept in %s, self times in %s\n", len(tr.spans), spans, table)
		res.Metrics = layers
	}
	return res, nil
}

// setupTimes are the timed assemblies of one run: the CPU time of the
// assembling thread (steal left out), the wall time, and the wall time
// of the route load.
type setupTimes struct {
	setups, walls, builds []float64
	// rulerNs is the median ruler reading taken before each assembly.
	rulerNs float64
}

// scaled is the median set-up time at the ruler's reference speed.
func (st setupTimes) scaled(refNs float64) float64 { return median(st.setups) * refNs / st.rulerNs }

// setUp assembles the router repeatedly, keeping the last assembly: the
// set-up time is the median over several, because one assembly of a
// small router takes milliseconds and a single reading of that is
// noise. A collection runs before each so no earlier garbage is swept
// inside the timed window, then the ruler is read.
func setUp(assemble func() (*simRig, error), rul *ruler, tr *tracer) (*simRig, setupTimes, error) {
	var st setupTimes
	var readings []float64
	var total time.Duration
	var s *simRig
	for len(st.setups) < minSetups || total < setupBudget && len(st.setups) < maxSetups {
		runtime.GC()
		readings = append(readings, rul.reading(setupReadings))
		c0, t0 := threadNanos(), nanotime()
		var err error
		s, err = assemble()
		c1, t1 := threadNanos(), nanotime()
		if err != nil {
			return nil, st, fmt.Errorf("set-up %d: %w", len(st.setups)+1, err)
		}
		total += time.Duration(t1 - t0)
		st.setups = append(st.setups, float64(c1-c0)/1e9)
		st.walls = append(st.walls, float64(t1-t0)/1e9)
		st.builds = append(st.builds, float64(s.buildEnd-s.buildStart)/1e9)
		if tr != nil {
			root := tr.record(spSetup, t0, t1)
			tr.add(spBuild, s.buildStart, s.buildEnd)
			if root >= 0 && len(tr.spans) < cap(tr.spans) {
				tr.store(spBuild, root, s.buildStart, s.buildEnd, -1)
			}
		}
	}
	st.rulerNs = median(readings)
	return s, st, nil
}

// tracedPhase runs a second window with every call timed and returns the
// per-layer metrics and the traced end-to-end figures.
func tracedPhase(s *simRig, ph *phase, tr *tracer, d time.Duration, builds []float64) (map[string]metric, summary, error) {
	c0, rt0, cpu0, wall0 := s.snapshot(), readRuntime(), cpuNanos(), nanotime()
	s.count(true)
	ph.begin(nanotime(), d)
	s.load(ph, tr)
	s.count(false)
	c1, rt1, cpu1, wall1 := s.snapshot(), readRuntime(), cpuNanos(), nanotime()
	traced, err := ph.summarize()
	if err != nil {
		return nil, summary{}, fmt.Errorf("traced phase: %w", err)
	}
	pkts := float64(ph.pkts)
	perPkt := func(n uint64) float64 { return float64(n) / pkts }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	dCached, dFirst := c1.aiuCached-c0.aiuCached, c1.aiuFirst-c0.aiuFirst
	dsts, keys, err := probeTargets(s.h.in.flows)
	if err != nil {
		return nil, summary{}, err
	}
	applyNs := tr.mean(spApply)
	if s.churn == nil {
		applyNs = probeApply(s.r.Routes)
	}
	m := map[string]metric{
		"netdev.inject_ns":         {tr.mean(spInject), "ns"},
		"netdev.poll_ns":           {tr.mean(spPoll), "ns"},
		"netdev.drops":             {float64(c1.netdevDrops), "count"},
		"netdev.mbuf_fallback":     {float64(c1.mbufFallback), "count"},
		"ipcore.forward_ns":        {tr.mean(spForward), "ns"},
		"ipcore.txdrain_ns":        {tr.mean(spTxDrain), "ns"},
		"ipcore.drops":             {float64(c1.ipcoreDrops), "count"},
		"aiu.hit_ratio":            {ratio(float64(dCached), float64(dCached+dFirst)), "ratio"},
		"aiu.classify_ns":          {probeClassify(s.r.AIU, keys), "ns"},
		"aiu.mem_accesses_per_pkt": {perPkt(c1.memAccesses - c0.memAccesses), "count"},
		"routing.lookup_ns":        {probeLookup(s.r.Routes, dsts), "ns"},
		"routing.apply_us":         {applyNs / 1e3, "us"},
		"routing.build_s":          {median(builds), "s"},
		"go.alloc_bytes_per_pkt":   {perPkt(rt1.allocBytes - rt0.allocBytes), "B"},
		"go.allocs_per_pkt":        {perPkt(rt1.allocObjs - rt0.allocObjs), "count"},
		"go.gc_cycles":             {float64(rt1.gcCycles - rt0.gcCycles), "count"},
		"go.gc_cpu_frac":           {ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio"},
		"go.sched_lat_p99_us":      {schedP99us(rt0, rt1), "us"},
		"proc.cpu_util":            {ratio(float64(cpu1-cpu0), float64(wall1-wall0)), "cores"},
	}
	return m, traced, nil
}

// probeTargets picks the run's destinations and flow keys (the keys
// that missed the flow cache on first sight) for the lookup and
// classification probes.
func probeTargets(fs *flowSet) ([]pkt.Addr, []pkt.Key, error) {
	n := min(fs.n, 4096)
	dsts := make([]pkt.Addr, n)
	keys := make([]pkt.Key, n)
	for i := range keys {
		k, err := fs.key(i, 0)
		if err != nil {
			return nil, nil, err
		}
		keys[i], dsts[i] = k, k.Dst
	}
	return dsts, keys, nil
}

// lookupSink keeps the probes' results live.
var lookupSink int32

// probeLookup is routing.Table.Lookup's mean cost over dsts.
func probeLookup(t *routing.Table, dsts []pkt.Addr) float64 {
	const calls = 1 << 20
	t0 := nanotime()
	for i := 0; i < calls; i++ {
		nh, _ := t.Lookup(dsts[i%len(dsts)], nil)
		lookupSink += nh.IfIndex
	}
	return float64(nanotime()-t0) / calls
}

// probeApply is routing.Table.ApplyBatch's mean cost on a workload that
// does not churn its routes: it announces and withdraws one /32 in
// TEST-NET-1, where no flow goes, after the load.
func probeApply(t *routing.Table) float64 {
	const rounds = 64
	rt := routing.Route{Prefix: pkt.PrefixFrom(pkt.AddrV4(0xc0000201), 32), NextHop: routing.NextHop{IfIndex: 1}}
	add, del := []routing.Route{rt}, []pkt.Prefix{rt.Prefix}
	t0 := nanotime()
	for i := 0; i < rounds; i++ {
		t.ApplyBatch(add, nil)
		t.ApplyBatch(nil, del)
	}
	return float64(nanotime()-t0) / (2 * rounds)
}

// probeClassify is aiu.AIU.ClassifyKey's mean cost over keys, at every
// gate.
func probeClassify(a *aiu.AIU, keys []pkt.Key) float64 {
	const calls = 1 << 15
	var total int64
	gates := a.Gates()
	for _, g := range gates {
		t0 := nanotime()
		for i := 0; i < calls; i++ {
			if a.ClassifyKey(g, keys[i%len(keys)], nil) != nil {
				lookupSink++
			}
		}
		total += nanotime() - t0
	}
	return float64(total) / float64(calls*len(gates))
}

// overheadLines compares the traced window with the untraced one.
func overheadLines(plain, traced summary) []string {
	row := func(name, unit string, a, b float64) string {
		return fmt.Sprintf("tracing overhead %-15s untraced %10.4f traced %10.4f %-7s (%+.1f%%)", name, a, b, unit, 100*(b-a)/a)
	}
	return []string{
		row("fwd_kpps", "kpkt/s", plain.kpps, traced.kpps),
		row("lat_p50_us", "us", plain.p50us, traced.p50us),
		row("lat_p99_us", "us", plain.p99us, traced.p99us),
		row("cpu_us_per_pkt", "us", plain.cpuUsPerPkt, traced.cpuUsPerPkt),
		"tracing overhead heap_mb         none: measured after the load, outside any traced window",
		"tracing overhead setup_s         none: set-up spans are two clock reads per assembly",
	}
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-26s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
