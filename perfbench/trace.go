package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// spanName identifies a span; each name has one fixed parent, so a
// layer's self time is its total minus its children's totals.
type spanName uint8

const (
	spPacket  spanName = iota // one packet, from Inject to the end of its check
	spInject                  // netdev.Interface.Inject
	spPoll                    // netdev.Interface.Poll
	spForward                 // ipcore.Router.Forward
	spTxDrain                 // ipcore.Router.TxDrain
	spVerify                  // the harness's check of the transmitted datagram
	spApply                   // routing.Table.ApplyBatch during the load (churn)
	spSetup                   // one assembly, until its first packet is verified
	spBuild                   // routing.Table.ApplyBatch at set-up
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"packet", "netdev.inject", "netdev.poll", "ipcore.forward", "ipcore.txdrain",
	"harness.verify", "routing.apply", "setup", "routing.build",
}

// noParent marks a root span.
const noParent = spanName(255)

var spanParent = [nSpanNames]spanName{
	noParent, spPacket, spPacket, spPacket, spPacket,
	spPacket, noParent, noParent, spSetup,
}

// span is one recorded interval. parent is the index of the parent span
// in the recorder (-1 for a root); pkt is the packet's sequence number
// (-1 when the span belongs to no packet).
type span struct {
	name       spanName
	parent     int32
	start, end int64
	pkt        int64
}

// tracer times every call the harness makes into a layer and keeps the
// spans of one packet in every `every` in a preallocated buffer, written
// out when the run ends. Per-layer totals cover every packet; the kept
// spans are the sample a reader can inspect. One goroutine records.
type tracer struct {
	calls [nSpanNames]int64
	ns    [nSpanNames]int64
	spans []span
	every uint64
}

// spansCap bounds the kept spans (a few MB of CSV per traced run).
const spansCap = 1 << 16

func newTracer(every uint64) *tracer {
	return &tracer{spans: make([]span, 0, spansCap), every: every}
}

// add counts one span into its layer's totals.
func (t *tracer) add(name spanName, start, end int64) {
	t.calls[name]++
	t.ns[name] += end - start
}

// keep reports whether the spans of packet seq should be stored, with
// room for n of them.
func (t *tracer) keep(seq uint64, n int) bool {
	return seq%t.every == 0 && len(t.spans)+n <= cap(t.spans)
}

// store appends a span and returns its index.
func (t *tracer) store(name spanName, parent int32, start, end, pkt int64) int32 {
	t.spans = append(t.spans, span{name, parent, start, end, pkt})
	return int32(len(t.spans) - 1)
}

// record counts a span and, when there is room, stores it as a root —
// for the spans that belong to no packet (set-up, churn).
func (t *tracer) record(name spanName, start, end int64) int32 {
	t.add(name, start, end)
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	return t.store(name, -1, start, end, -1)
}

// mean is a layer's mean span duration in nanoseconds (0 when the
// workload never called into it).
func (t *tracer) mean(name spanName) float64 {
	if t.calls[name] == 0 {
		return 0
	}
	return float64(t.ns[name]) / float64(t.calls[name])
}

// selfNs is a layer's total duration minus the part its child spans
// cover.
func (t *tracer) selfNs(name spanName) int64 {
	self := t.ns[name]
	for c := spanName(0); c < nSpanNames; c++ {
		if spanParent[c] == name {
			self -= t.ns[c]
		}
	}
	return self
}

// writeSummary prints the self-time table: per layer, calls, mean
// duration, and self time as a total and a share of all packet time.
func (t *tracer) writeSummary(w io.Writer) {
	fmt.Fprintf(w, "%-16s %12s %12s %14s %8s\n", "layer", "calls", "mean_ns", "self_ms", "self_%")
	pktNs := float64(t.ns[spPacket])
	for n := spanName(0); n < nSpanNames; n++ {
		if t.calls[n] == 0 {
			continue
		}
		share := "-"
		if pktNs > 0 && (n == spPacket || spanParent[n] == spPacket) {
			share = strconv.FormatFloat(100*float64(t.selfNs(n))/pktNs, 'f', 1, 64)
		}
		fmt.Fprintf(w, "%-16s %12d %12.1f %14.3f %8s\n", spanNames[n], t.calls[n],
			t.mean(n), float64(t.selfNs(n))/1e6, share)
	}
}

// writeFiles writes the kept spans (CSV: id, name, start and end in ns
// since process start, parent id, packet) and the self-time summary
// (with the header lines given) into dir, and returns the paths.
func (t *tracer) writeFiles(dir, stem string, header []string) (spansPath, summaryPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	spansPath = filepath.Join(dir, stem+".spans.csv")
	summaryPath = filepath.Join(dir, stem+".layers.txt")
	if err := writeFile(spansPath, func(w io.Writer) {
		fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,packet")
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, spanNames[s.name], s.start, s.end, s.parent, s.pkt)
		}
	}); err != nil {
		return "", "", err
	}
	err = writeFile(summaryPath, func(w io.Writer) {
		for _, h := range header {
			fmt.Fprintln(w, h)
		}
		t.writeSummary(w)
	})
	return spansPath, summaryPath, err
}

func writeFile(path string, fill func(w io.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fill(bw)
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
