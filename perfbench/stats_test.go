package main

import "testing"

func seqFloats(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	v, n, err := percentile(seqFloats(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if n != 1000 || v != 990 {
		t.Errorf("p99 of 1..1000 = %v over %d samples, want 990 over 1000", v, n)
	}
	if _, n, err := percentile(seqFloats(999), 0.99); err == nil || n != 999 {
		t.Errorf("p99 of 999 samples: err=%v n=%d, want a refusal reporting 999", err, n)
	}
	if v, _, err := percentile(seqFloats(21), 0.5); err != nil || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	for _, q := range []float64{0, 1, -0.5} {
		if _, _, err := percentile(seqFloats(5000), q); err == nil {
			t.Errorf("percentile %v accepted", q)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestSamplerThinsEvenly(t *testing.T) {
	s := newSampler(8)
	for i := int64(0); i < 100; i++ {
		s.add(i, i)
	}
	if len(s.buf) > 8 || len(s.buf) < 4 {
		t.Fatalf("kept %d of 100", len(s.buf))
	}
	gap := s.buf[1].at - s.buf[0].at
	for i := 1; i < len(s.buf); i++ {
		if d := s.buf[i].at - s.buf[i-1].at; d != gap || s.buf[i-1].at%gap != 0 {
			t.Fatalf("uneven spacing: %v", s.buf)
		}
	}
}

// slicedPhase builds a phase of four slices of 2000 packets each over
// 1000 ns, whose third slice is slow, with latency samples of 100 to 199
// ns spread over every slice and ruler readings rulerNs[i] in slice i.
func slicedPhase(rulerNs [4]float64) *phase {
	ph := newPhase(newSampler(1<<16), newRuler(false))
	ph.step = 1000
	for i := 0; i <= 4; i++ {
		at := int64(i * 1000)
		if i >= 3 {
			at += 4000
		}
		ph.marks = append(ph.marks, mark{at: at, pkts: int64(2000 * i), cpu: int64(i) * 2000 * 500, thread: at, reading: i})
	}
	for i := 0; i < 4; i++ {
		ph.readings = append(ph.readings, rulerNs[i])
		lo, hi := ph.marks[i].at, ph.marks[i+1].at
		for j := int64(0); j < 2000; j++ {
			ph.samples.add(lo+j*(hi-lo)/2000, 100+j%100)
		}
	}
	return ph
}

func TestPhaseSummary(t *testing.T) {
	ref := newRuler(false).refNs
	s, err := slicedPhase([4]float64{ref, ref, ref, ref}).summarize()
	if err != nil {
		t.Fatal(err)
	}
	// Slices run at 2, 2, 0.4 and 2 packets/ns; the median over slices
	// ignores the slow one. Latency percentiles are over all samples.
	if s.kpps != 2e6 || s.cpuUsPerPkt != 0.5 || s.slices != 4 || s.raw != s.figures {
		t.Errorf("summary = %+v", s)
	}
	if s.p50us != 0.149 || s.p99us != 0.198 {
		t.Errorf("p50 %v p99 %v", s.p50us, s.p99us)
	}
}

// A slice whose ruler ran twice as slow as the reference did half the
// work the reference host would have: its figures are scaled back.
func TestRulerScalesEachSlice(t *testing.T) {
	ref := newRuler(false).refNs
	s, err := slicedPhase([4]float64{2 * ref, 2 * ref, ref, 2 * ref}).summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.raw.kpps != 2e6 || s.kpps != 4e6 || s.cpuUsPerPkt != 0.25 || s.rulerNs != 2*ref {
		t.Errorf("summary = %+v", s)
	}
	// Latency samples are pooled: three slices of halved samples (50 to
	// 99.5 ns) and one of unscaled ones (100 to 199 ns).
	if s.p50us != 0.166/2 || s.p99us != 0.195 || s.raw.p50us != 0.149 || s.raw.p99us != 0.198 {
		t.Errorf("p50 %v p99 %v, unscaled %v %v", s.p50us, s.p99us, s.raw.p50us, s.raw.p99us)
	}
	ph := slicedPhase([4]float64{ref, ref, ref, ref})
	ph.marks[2].reading = 1
	if _, err := ph.summarize(); err == nil {
		t.Error("a slice without ruler readings was summarized")
	}
}
