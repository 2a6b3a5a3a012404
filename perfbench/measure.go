package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// epoch anchors nanotime; time.Since reads only the monotonic clock.
var epoch = time.Now()

// nanotime is monotonic nanoseconds since the process started.
func nanotime() int64 { return int64(time.Since(epoch)) }

// cpuNanos is the process's CPU time so far.
func cpuNanos() int64 { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadNanos is the calling OS thread's CPU time so far. The kernel
// leaves out the time the host ran something else on the virtual CPU
// (steal), which wall time cannot.
func threadNanos() int64 { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// cpuClock reads a Linux CPU-time clock to the nanosecond; getrusage
// rounds a thread's time to whole scheduler ticks.
func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// sample is one packet's latency and the time it completed.
type sample struct{ at, lat int64 }

// sampler keeps an evenly spaced subset of a stream of latency samples
// in a fixed buffer: when the buffer fills it keeps every other sample
// and doubles its stride, so a long run at a high rate neither grows
// memory nor over-weights its first seconds.
type sampler struct {
	buf    []sample
	stride int
	skip   int
}

// newSampler preallocates room for capacity samples (rounded up to even).
func newSampler(capacity int) *sampler {
	return &sampler{buf: make([]sample, 0, capacity+capacity%2), stride: 1}
}

func (s *sampler) reset() {
	s.buf, s.stride, s.skip = s.buf[:0], 1, 0
}

func (s *sampler) add(at, lat int64) {
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.buf) == cap(s.buf) {
		k := 0
		for i := 0; i < len(s.buf); i += 2 {
			s.buf[k] = s.buf[i]
			k++
		}
		s.buf = s.buf[:k]
		s.stride *= 2
	}
	s.buf = append(s.buf, sample{at, lat})
	s.skip = s.stride - 1
}

// mark is a slice boundary of a measured phase: the time, packets,
// process and load-thread CPU time so far, the time spent in the ruler
// so far, and the index of the next ruler reading.
type mark struct {
	at, pkts, cpu, thread, rulerNs int64
	reading                        int
}

// phase is one measured window. The load loop counts packets and calls
// tick with the time of each; tick records a boundary every step, and
// the phase's rates are medians over the slices between boundaries, so
// a burst of noise from elsewhere on the host spoils one slice, not the
// run. The loop also calls readRuler when rulerNext is due; each slice
// is scaled by its ruler readings (see ruler.go).
type phase struct {
	samples   *sampler
	marks     []mark
	step      int64
	next      int64
	end       int64
	pkts      int64
	rul       *ruler
	readings  []float64
	rulerNs   int64
	rulerNext int64
}

const (
	// sliceLen spans at least one GC cycle on both workloads, so a
	// slice averages over collection rather than falling inside or
	// outside one.
	sliceLen = 2 * time.Second
	// maxMarks bounds the slices per phase (preallocated, so tick never
	// allocates).
	maxMarks = 256
)

func newPhase(samples *sampler, rul *ruler) *phase {
	return &phase{samples: samples, marks: make([]mark, 0, maxMarks), rul: rul, readings: make([]float64, 0, rulerCap)}
}

// begin starts a window of d at now, sliced in steps of sliceLen (one
// slice when the window is shorter).
func (ph *phase) begin(now int64, d time.Duration) {
	ph.samples.reset()
	ph.pkts = 0
	ph.step = int64(min(sliceLen, d))
	ph.end = now + int64(d)
	ph.next = now + ph.step
	ph.readings, ph.rulerNs, ph.rulerNext = ph.readings[:0], 0, now
	ph.marks = append(ph.marks[:0], mark{now, 0, cpuNanos(), threadNanos(), 0, 0})
}

// readRuler times one ruler chunk; the caller checks now >= ph.rulerNext.
func (ph *phase) readRuler(now int64) {
	d := ph.rul.chunk()
	ph.rulerNs += d
	if len(ph.readings) < cap(ph.readings) {
		ph.readings = append(ph.readings, float64(d))
	}
	ph.rulerNext = now + int64(rulerEvery)
}

// tick records a slice boundary when one is due and reports whether the
// window is over. The caller checks now >= ph.next first, keeping the
// common case to one comparison.
func (ph *phase) tick(now int64) bool {
	if now < ph.next {
		return false
	}
	if len(ph.marks) < cap(ph.marks) {
		ph.marks = append(ph.marks, mark{now, ph.pkts, cpuNanos(), threadNanos(), ph.rulerNs, len(ph.readings)})
	}
	ph.next += ph.step
	if ph.end-ph.next < ph.step {
		// A remainder shorter than a slice joins the last slice.
		ph.next = ph.end
	}
	if now >= ph.end {
		ph.next = math.MaxInt64
		return true
	}
	return false
}

// figures are a phase's time-based end-to-end figures.
type figures struct {
	kpps, p50us, p99us, cpuUsPerPkt float64
}

// summary is a phase's end-to-end figures at the ruler's reference
// speed, the same figures unscaled, and the median ruler reading.
type summary struct {
	figures
	raw             figures
	rulerNs         float64
	samples, slices int
	wall            time.Duration
	pkts            int64
}

// summarize computes the phase's figures: delivered packets per second
// of the load thread's CPU time and process CPU per packet as medians
// over its slices, and the p50 and p99 of every latency sample in the
// window. The time spent in the ruler is taken out of each slice, and
// each slice's figures and samples are scaled by the ruler's refNs over
// the median of the slice's ruler readings. The p99 must have minBeyond
// samples beyond it.
func (ph *phase) summarize() (summary, error) {
	var s summary
	if len(ph.marks) < 2 {
		return s, fmt.Errorf("phase recorded no complete slice")
	}
	first, last := ph.marks[0], ph.marks[len(ph.marks)-1]
	s.slices = len(ph.marks) - 1
	s.wall = time.Duration(last.at - first.at)
	s.pkts = last.pkts - first.pkts
	s.samples = len(ph.samples.buf)
	var kpps, cpu, rawKpps, rawCPU, rulerNs []float64
	lats := make([]float64, 0, len(ph.samples.buf))
	rawLats := make([]float64, 0, len(ph.samples.buf))
	k := 0
	for i := 1; i < len(ph.marks); i++ {
		a, b := ph.marks[i-1], ph.marks[i]
		n := b.pkts - a.pkts
		if n <= 0 {
			return s, fmt.Errorf("slice %d delivered no packets", i)
		}
		if b.reading == a.reading {
			return s, fmt.Errorf("slice %d has no ruler reading", i)
		}
		rn := median(ph.readings[a.reading:b.reading])
		scale := ph.rul.refNs / rn
		inRuler := b.rulerNs - a.rulerNs
		rawKpps = append(rawKpps, float64(n)/float64(b.thread-a.thread-inRuler)*1e6)
		rawCPU = append(rawCPU, float64(b.cpu-a.cpu-inRuler)/float64(n)/1e3)
		kpps = append(kpps, rawKpps[i-1]/scale)
		cpu = append(cpu, rawCPU[i-1]*scale)
		rulerNs = append(rulerNs, rn)
		for ; k < len(ph.samples.buf) && ph.samples.buf[k].at < b.at; k++ {
			if ph.samples.buf[k].at >= a.at {
				us := float64(ph.samples.buf[k].lat) / 1e3
				rawLats = append(rawLats, us)
				lats = append(lats, us*scale)
			}
		}
	}
	s.kpps, s.cpuUsPerPkt = median(kpps), median(cpu)
	s.raw.kpps, s.raw.cpuUsPerPkt = median(rawKpps), median(rawCPU)
	s.rulerNs = median(rulerNs)
	for _, l := range []struct {
		xs       []float64
		p50, p99 *float64
	}{{lats, &s.p50us, &s.p99us}, {rawLats, &s.raw.p50us, &s.raw.p99us}} {
		sort.Float64s(l.xs)
		var err error
		if *l.p50, _, err = percentile(l.xs, 0.50); err != nil {
			return s, err
		}
		if *l.p99, _, err = percentile(l.xs, 0.99); err != nil {
			return s, err
		}
	}
	return s, nil
}

// rtNames are the runtime/metrics the per-layer report reads.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// rtSnap is one reading of rtNames.
type rtSnap struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU, totalCPU                 float64
	sched                           *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return rtSnap{
		allocBytes: ms[0].Value.Uint64(),
		allocObjs:  ms[1].Value.Uint64(),
		gcCycles:   ms[2].Value.Uint64(),
		gcCPU:      ms[3].Value.Float64(),
		totalCPU:   ms[4].Value.Float64(),
		sched:      ms[5].Value.Float64Histogram(),
	}
}

// schedP99us is the 99th percentile of goroutine scheduling latency
// between two readings, interpolated inside its histogram bucket.
func schedP99us(a, b rtSnap) float64 {
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i]
		if i < len(a.sched.Counts) {
			counts[i] -= a.sched.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := 0.99 * float64(total)
	var cum float64
	for i, c := range counts {
		if cum+float64(c) >= target && c > 0 {
			lo, hi := b.sched.Buckets[i], b.sched.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo * 1e6
			}
			return (lo + (hi-lo)*(target-cum)/float64(c)) * 1e6
		}
		cum += float64(c)
	}
	return 0
}
